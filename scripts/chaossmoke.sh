#!/bin/sh
# CI smoke check for the crash-safety layer (DESIGN.md §12): the
# crash-recover-verify loop at three process-level chaos points, plus
# the in-process seeded chaos matrix under -race.
#
#   1. crawl kill: SIGKILL a crumbcruncher run mid-crawl while it
#      records to its -save run store, resume it from that store, and
#      require metrics byte-identical to a clean run.
#   2. server kill: SIGKILL crumbserved (no drain), restart on the same
#      store, and require the persisted run to survive and reanalyze to
#      the same metrics.
#   3. corrupt run-store boot: flip a byte inside one run's sealed
#      segment and require the restarted server to move that run aside
#      and keep listing the undamaged one — never silently skipping
#      the damage.
#
# Usage: scripts/chaossmoke.sh
set -eu
cd "$(dirname "$0")/.."

SEED=4
WALKS=600
ADDR=127.0.0.1:18097
BASE="http://$ADDR"

work="$(mktemp -d)"
cleanup() {
	[ -n "${CRAWL_PID:-}" ] && kill -9 "$CRAWL_PID" 2>/dev/null || true
	[ -n "${SRV_PID:-}" ] && kill -9 "$SRV_PID" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

echo "--- chaos: in-process seeded fault matrix (-race)"
go test -race -count=1 -run 'TestChaos' .
go test -race -count=1 ./internal/chaos

go build -o "$work/crumbcruncher" ./cmd/crumbcruncher
go build -o "$work/crumbserved" ./cmd/crumbserved

# --- Chaos point 1: crawl kill -----------------------------------------------

echo "--- chaos: crawl kill + resume"
"$work/crumbcruncher" -small -seed "$SEED" -walks "$WALKS" -parallel 1 \
	-metrics -out "$work/clean.json" 2>/dev/null

store="$work/run.crumbs"
# walk_records counts the walk records in the store's active segment,
# seg-NNNNNN.jsonl (each frame's payload of a walk record opens with
# {"index":). The kill lands long before the first segment seals.
walk_records() {
	cat "$store"/seg-*.jsonl 2>/dev/null | grep -c '!{"index":' || true
}
"$work/crumbcruncher" -small -seed "$SEED" -walks "$WALKS" -parallel 1 \
	-save "$store" \
	-metrics -out "$work/victim.json" 2>"$work/victim.log" &
CRAWL_PID=$!

# Kill once a handful of walks are in the store, well before the
# 600-walk crawl can finish. Appends are not fsynced, but SIGKILL loses
# nothing the kernel already holds; whatever a crash does lose, the
# resume re-crawls.
i=0
while [ "$(walk_records)" -lt 5 ]; do
	i=$((i + 1))
	if [ "$i" -gt 200 ]; then
		echo "FAIL: run store never accumulated walks" >&2
		cat "$work/victim.log" >&2
		exit 1
	fi
	sleep 0.05
done
kill -9 "$CRAWL_PID"
wait "$CRAWL_PID" 2>/dev/null && {
	echo "FAIL: victim run completed before the kill landed" >&2
	exit 1
}
CRAWL_PID=""
echo "OK: killed mid-crawl with $(walk_records) walk records in the run store"

"$work/crumbcruncher" -small -seed "$SEED" -walks "$WALKS" -parallel 1 \
	-save "$store" \
	-metrics -out "$work/resumed.json" 2>"$work/resume.log"
grep -q "resuming:" "$work/resume.log" || {
	echo "FAIL: resumed run did not pick up the run store" >&2
	cat "$work/resume.log" >&2
	exit 1
}
if ! diff -q "$work/clean.json" "$work/resumed.json" >/dev/null; then
	echo "FAIL: killed-and-resumed metrics diverge from the clean run" >&2
	diff "$work/clean.json" "$work/resumed.json" >&2 || true
	exit 1
fi
echo "OK: killed-and-resumed metrics byte-identical to the clean run"

# --- Chaos point 2: server kill ----------------------------------------------

echo "--- chaos: server kill + restart"
start_server() {
	"$work/crumbserved" -addr "$ADDR" -workers 1 -store "$work/runs" \
		2>>"$work/served.log" &
	SRV_PID=$!
	i=0
	until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "FAIL: server did not come up" >&2
			cat "$work/served.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

submit() { # submit BODY -> job id
	curl -sf -X POST "$BASE/jobs" -d "$1" |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1
}

wait_done() { # wait_done ID
	i=0
	while :; do
		state="$(curl -sf "$BASE/jobs/$1" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1)"
		[ "$state" = "done" ] && return 0
		case "$state" in
		failed | canceled | interrupted)
			echo "FAIL: job $1 ended $state" >&2
			curl -s "$BASE/jobs/$1" >&2
			exit 1
			;;
		esac
		i=$((i + 1))
		[ "$i" -gt 600 ] && {
			echo "FAIL: job $1 stuck in state '$state'" >&2
			exit 1
		}
		sleep 0.2
	done
}

start_server
JOB1="$(submit '{"small":true,"seed":5,"walks":12}')"
wait_done "$JOB1"
curl -sf "$BASE/jobs/$JOB1/metrics" >"$work/job1.json"
JOB2="$(submit '{"small":true,"seed":6,"walks":12}')"
wait_done "$JOB2"

kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
echo "OK: server killed without drain"

start_server
runs="$(curl -sf "$BASE/runs")"
echo "$runs" | grep -q "\"$JOB1\"" || {
	echo "FAIL: run $JOB1 lost across the kill" >&2
	echo "$runs" >&2
	exit 1
}
RE="$(submit "{\"kind\":\"reanalyze\",\"run_id\":\"$JOB1\"}")"
wait_done "$RE"
curl -sf "$BASE/jobs/$RE/metrics" >"$work/reanalyzed.json"
if ! diff -q "$work/job1.json" "$work/reanalyzed.json" >/dev/null; then
	echo "FAIL: reanalysis after server kill diverges from the original metrics" >&2
	diff "$work/job1.json" "$work/reanalyzed.json" >&2 || true
	exit 1
fi
echo "OK: store survived the kill; reanalysis metrics byte-identical"

kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""

# --- Chaos point 3: corrupt run-store boot ----------------------------------

echo "--- chaos: corrupt run-store boot"
# Flip one byte in the middle of JOB2's sealed segment: damage the next
# boot's verification must catch, never trust or skip silently.
seg="$work/runs/run-$JOB2.crumbs/seg-000000.sgz"
off=$(($(wc -c <"$seg") / 2))
b="$(od -An -tu1 -j "$off" -N1 "$seg" | tr -d ' ')"
printf "\\$(printf '%03o' $((b ^ 1)))" | dd of="$seg" bs=1 seek="$off" count=1 conv=notrunc 2>/dev/null

start_server
runs="$(curl -sf "$BASE/runs")"
echo "$runs" | grep -q "\"$JOB1\"" || {
	echo "FAIL: undamaged run $JOB1 lost at boot" >&2
	echo "$runs" >&2
	exit 1
}
echo "$runs" | grep -q "\"$JOB2\"" && {
	echo "FAIL: damaged run $JOB2 silently trusted after corruption" >&2
	echo "$runs" >&2
	exit 1
}
[ -d "$work/runs/run-$JOB2.crumbs.corrupt" ] || {
	echo "FAIL: damaged run store was not moved aside" >&2
	ls -la "$work/runs" >&2
	exit 1
}
echo "OK: damaged run store moved aside to run-$JOB2.crumbs.corrupt, $JOB1 still listed"

kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
echo "PASS: chaossmoke"
