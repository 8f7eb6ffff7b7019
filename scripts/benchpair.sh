#!/usr/bin/env bash
# Paired benchmark runner: measures one perfbench workload on a base
# revision and on the working tree, alternating the two in ABBA order,
# and prints each end-to-end metric of BENCHMARK.json with both sides'
# median and IQR, the median delta, how many pairs the working tree won,
# and a verdict against the metric's bound.
#
# Usage (from anywhere inside the repository):
#   scripts/benchpair.sh [--base REV] [--workload NAME] [--pairs N]
#
#   --base      revision to compare against (default HEAD~1)
#   --workload  perfbench workload (default paper-crawl)
#   --pairs     number of pairs; pair i runs both sides at seed i and
#               odd pairs run base first, even pairs the working tree
#               first (default 5)
#
# Every run lasts BENCHMARK.json's run_seconds. The base revision is
# exported with `git archive` into a temporary directory, built there and
# removed on exit, so the comparison leaves no trace in the repository.
#
# Verdicts, per metric, first match wins:
#   "unresolved"    the base IQR exceeds the bound (relative to the base
#                   median) and not every head run beat every base run;
#   "regression"    the head median is worse than the base median by more
#                   than the bound;
#   "gain"          the head median is better by more than the base IQR,
#                   the head won at least 90% of the pairs, there were at
#                   least 10 pairs, no run of either side failed its
#                   output check and the head failed no more operations
#                   than the base;
#   "within bound"  otherwise.
set -euo pipefail

root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
base=HEAD~1
workload=paper-crawl
pairs=5
while [ $# -gt 0 ]; do
	case "$1" in
	--base) base="$2" ;;
	--workload) workload="$2" ;;
	--pairs) pairs="$2" ;;
	*)
		sed -n '/^# Usage/,/^# Every run/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
		exit 2
		;;
	esac
	shift 2
done

spec="$root/BENCHMARK.json"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$spec")"
workdir="$(mktemp -d "${TMPDIR:-/tmp}/benchpair.XXXXXX")"
trap 'rm -rf "$workdir"' EXIT
rev="$(git -C "$root" rev-parse --short "$base^{commit}")"
mkdir -p "$workdir/base" "$workdir/runs"
git -C "$root" archive "$rev" | tar -x -C "$workdir/base"

# run SIDE PAIR: one perfbench run of the given side at seed PAIR.
run() {
	local tree="$root" out="$workdir/runs/$2-$1"
	[ "$1" = base ] && tree="$workdir/base"
	echo "pair $2 seed $2: $1" >&2
	if ! bash "$tree/perfbench/run.sh" --workload "$workload" --seed "$2" \
		--seconds "$seconds" --trace 0 >"$out.log" 2>&1; then
		echo "benchpair: $1 run of pair $2 failed:" >&2
		tail -n 20 "$out.log" >&2
		exit 1
	fi
	tail -n 1 "$out.log" >"$out.json"
	tail -n 2 "$out.log" | head -n 1 >"$out.stamp"
}

for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run base "$p"
		run head "$p"
	else
		run head "$p"
		run base "$p"
	fi
done

echo "benchpair: $workload, base $rev vs working tree, $pairs pairs in ABBA order, ${seconds}s per run"
# The host stamp of the first run: every run shares the host.
sed -n 's/.*"nproc":\([0-9]*\).*"gomaxprocs":\([0-9]*\).*"go_version":"\([^"]*\)".*/host: nproc \1, GOMAXPROCS \2, \3/p' \
	"$workdir/runs/1-base.stamp"

# One awk program reads the metric specs, then every run's JSON line.
awk -v pairs="$pairs" '
function num(line, key,    pat) {
	pat = "\"" key "\":{\"value\":[-0-9.eE+]+"
	if (!match(line, pat)) return "nan"
	return substr(line, RSTART + length(key) + 12, RLENGTH - length(key) - 12) + 0
}
function field(line, key,    pat) {
	pat = "\"" key "\":[0-9]+"
	if (!match(line, pat)) return 0
	return substr(line, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
}
# quantile q of v[1..n] (sorted in place), linearly interpolated.
function quantile(v, n, q,    i, j, t, h) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	h = 1 + (n - 1) * q
	i = int(h)
	return i >= n ? v[n] : v[i] + (h - i) * (v[i + 1] - v[i])
}
FILENAME == ARGV[1] {
	if ($0 !~ /"bound"/) next
	match($0, /"name": *"[^"]*"/); s = substr($0, RSTART, RLENGTH); sub(/.*: *"/, "", s); sub(/"$/, "", s)
	name[++nm] = s
	better[s] = ($0 ~ /"better": *"higher"/) ? "higher" : "lower"
	match($0, /"bound": *[0-9.]+/); s2 = substr($0, RSTART, RLENGTH); sub(/.*: */, "", s2)
	bound[s] = s2 + 0
	next
}
{
	f = FILENAME; sub(/.*\//, "", f); sub(/\.json$/, "", f)
	split(f, k, "-")
	side = k[2]; p = k[1] + 0
	if ($0 !~ /"correct":true/) bad[side]++
	att[side] += field($0, "attempted"); fail[side] += field($0, "failed")
	for (m = 1; m <= nm; m++) val[side, name[m], p] = num($0, name[m])
}
END {
	# A gain needs enough pairs and runs that are no less sound than the base.
	claimable = pairs >= 10 && bad["base"] + bad["head"] == 0 && fail["head"] <= fail["base"]
	printf "\n%-4s %-5s", "pair", "order"
	for (m = 1; m <= nm; m++) printf "  %17s", name[m] " b/h"
	printf "\n"
	for (p = 1; p <= pairs; p++) {
		printf "%-4d %-5s", p, (p % 2) ? "AB" : "BA"
		for (m = 1; m <= nm; m++) printf "  %8.2f/%-8.2f", val["base", name[m], p], val["head", name[m], p]
		printf "\n"
	}
	printf "\n%-12s %10s %9s %10s %9s %8s %6s %6s  %s\n", "metric", "base med", "base IQR", "head med", "head IQR", "delta", "wins", "bound", "verdict"
	for (m = 1; m <= nm; m++) {
		n = name[m]; wins = 0
		for (p = 1; p <= pairs; p++) {
			b[p] = val["base", n, p]; h[p] = val["head", n, p]
			if (better[n] == "lower" ? h[p] < b[p] : h[p] > b[p]) wins++
		}
		bm = quantile(b, pairs, 0.5); biqr = quantile(b, pairs, 0.75) - quantile(b, pairs, 0.25)
		hm = quantile(h, pairs, 0.5); hiqr = quantile(h, pairs, 0.75) - quantile(h, pairs, 0.25)
		delta = bm != 0 ? (hm - bm) / bm : 0
		worse = better[n] == "lower" ? delta : -delta
		gain = better[n] == "lower" ? bm - hm : hm - bm
		verdict = "within bound"
		# quantile sorted b and h: every head run beat every base run when
		# the worst head run beat the best base run.
		apart = better[n] == "lower" ? h[pairs] < b[1] : h[1] > b[pairs]
		if (bm != 0 && biqr / bm > bound[n] && !apart) verdict = "unresolved"
		else if (worse > bound[n]) verdict = "regression"
		else if (gain > biqr && wins >= 0.9 * pairs && claimable) verdict = "gain"
		printf "%-12s %10.3f %9.3f %10.3f %9.3f %+7.1f%% %3d/%-2d %5.0f%%  %s\n", n, bm, biqr, hm, hiqr, 100 * delta, wins, pairs, 100 * bound[n], verdict
	}
	printf "\nfailed operations: base %d/%d, head %d/%d", fail["base"], att["base"], fail["head"], att["head"]
	if (bad["base"] + bad["head"] > 0) printf "; incorrect runs: base %d, head %d", bad["base"], bad["head"]
	printf "\n"
	if (pairs < 10) printf "no gain verdicts: %d pairs, a gain needs at least 10\n", pairs
	else if (!claimable) printf "no gain verdicts: a run failed its output check, or the head failed more operations than the base\n"
}' "$spec" "$workdir"/runs/*.json
