#!/bin/sh
# CI smoke check for the crumbserved service shape: boot the server,
# submit two concurrent jobs, poll to completion, and diff each job's
# metrics against the crumbcruncher CLI running the same seed solo —
# the end-to-end form of the multi-tenant determinism guarantee. Then
# exercise SIGTERM drain: an in-flight job must leave its run store
# unfinalized and resumable, a late submission must see 503 +
# Retry-After, and the process must exit 0. Between the two, restart
# the server on the same store: GET /runs must list the same runs.
#
# Usage: scripts/servesmoke.sh
set -eu
cd "$(dirname "$0")/.."

WALKS=12
PAR=2
ADDR=127.0.0.1:18099
BASE="http://$ADDR"

work="$(mktemp -d)"
cleanup() {
	[ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/crumbserved" ./cmd/crumbserved
go build -o "$work/crumbcruncher" ./cmd/crumbcruncher

start_server() {
	"$work/crumbserved" -addr "$ADDR" -workers 2 -store "$work/runs" \
		-drain-grace 60s 2>>"$work/served.log" &
	SRV_PID=$!

	# Wait for the API to come up.
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
start_server

submit() { # submit BODY -> job id
	curl -sf -X POST "$BASE/jobs" -d "$1" |
		sed -n 's/.*"id": *"\([^"]*\)".*/\1/p' | head -n 1
}

job_state() { # job_state ID
	curl -sf "$BASE/jobs/$1" | sed -n 's/.*"state": *"\([^"]*\)".*/\1/p' | head -n 1
}

wait_done() { # wait_done ID
	i=0
	while :; do
		state="$(job_state "$1")"
		case "$state" in
		done) return 0 ;;
		failed | canceled | interrupted)
			echo "FAIL: job $1 ended $state" >&2
			curl -s "$BASE/jobs/$1" >&2
			exit 1
			;;
		esac
		i=$((i + 1))
		if [ "$i" -gt 600 ]; then
			echo "FAIL: job $1 stuck in state '$state'" >&2
			exit 1
		fi
		sleep 0.2
	done
}

# Two concurrent jobs on different seeds.
JOB5="$(submit "{\"small\":true,\"seed\":5,\"walks\":$WALKS,\"parallelism\":$PAR}")"
JOB6="$(submit "{\"small\":true,\"seed\":6,\"walks\":$WALKS,\"parallelism\":$PAR}")"
[ -n "$JOB5" ] && [ -n "$JOB6" ] || {
	echo "FAIL: job submission returned no id" >&2
	exit 1
}
wait_done "$JOB5"
wait_done "$JOB6"

# Each server-side result must match the CLI running the same job solo.
for pair in "5 $JOB5" "6 $JOB6"; do
	seed="${pair% *}"
	job="${pair#* }"
	curl -sf "$BASE/jobs/$job/metrics" >"$work/serve-$seed.json"
	"$work/crumbcruncher" -small -seed "$seed" -walks "$WALKS" \
		-parallel "$PAR" -metrics -out "$work/solo-$seed.json" 2>/dev/null
	if ! diff -q "$work/serve-$seed.json" "$work/solo-$seed.json" >/dev/null; then
		echo "FAIL: seed $seed: server metrics diverge from solo CLI run" >&2
		diff "$work/serve-$seed.json" "$work/solo-$seed.json" >&2 || true
		exit 1
	fi
	echo "OK: seed $seed metrics byte-identical between crumbserved and crumbcruncher"
done

# Restart on the same store: the run list is the store directory's
# finalized runs, so a new process lists exactly the runs the old one
# did.
curl -sf "$BASE/runs" >"$work/runs-before.json"
kill -TERM "$SRV_PID"
wait "$SRV_PID" || {
	echo "FAIL: crumbserved exited non-zero after SIGTERM" >&2
	cat "$work/served.log" >&2
	exit 1
}
start_server
curl -sf "$BASE/runs" >"$work/runs-after.json"
if ! diff -q "$work/runs-before.json" "$work/runs-after.json" >/dev/null; then
	echo "FAIL: the restarted server lists other runs" >&2
	diff "$work/runs-before.json" "$work/runs-after.json" >&2 || true
	exit 1
fi
for job in "$JOB5" "$JOB6"; do
	grep -q "\"$job\"" "$work/runs-after.json" || {
		echo "FAIL: the restarted server does not list $job" >&2
		cat "$work/runs-after.json" >&2
		exit 1
	}
done
echo "OK: the restarted server lists the same runs"

# Drain: start a job too big to finish, SIGTERM, then expect 503 on a
# late submission and an unfinalized run store for the interrupted job.
JOBBIG="$(submit '{"small":true,"seed":3,"walks":5000,"parallelism":2}')"
i=0
while [ "$(job_state "$JOBBIG")" != "running" ]; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && {
		echo "FAIL: drain job never started" >&2
		exit 1
	}
	sleep 0.1
done

# The drain window can be milliseconds wide (the in-flight job stops at
# the next walk boundary), so a polling loop started after the signal
# can miss it entirely. Instead hammer /jobs continuously from just
# before the signal: pre-signal probes get 202 (harmless extra jobs the
# drain cancels), the drain window yields 503, and the closed listener
# ends the loop with 000.
: >"$work/drain_codes"
(
	while :; do
		c="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/jobs" \
			-d '{"small":true,"seed":9}' 2>/dev/null)" || c=000
		echo "$c" >>"$work/drain_codes"
		case "$c" in 000*) break ;; esac
	done
) &
PROBE_PID=$!

kill -TERM "$SRV_PID"
wait "$PROBE_PID"

if grep -qx 503 "$work/drain_codes"; then
	echo "OK: late submission during drain rejected with 503"
else
	echo "FAIL: no late submission during drain saw 503 (codes: $(sort -u "$work/drain_codes" | tr '\n' ' '))" >&2
	cat "$work/served.log" >&2
	exit 1
fi

if ! wait "$SRV_PID"; then
	echo "FAIL: crumbserved exited non-zero after SIGTERM" >&2
	cat "$work/served.log" >&2
	exit 1
fi
SRV_PID=""
echo "OK: crumbserved drained and exited 0"

runfile="$work/runs/run-$JOBBIG.crumbs"
if [ ! -s "$runfile/manifest.json" ]; then
	echo "FAIL: no run store for interrupted job $JOBBIG" >&2
	ls -la "$work/runs" >&2
	exit 1
fi
# Finalize stamps the walk count into the manifest; an unfinalized
# store's manifest still records 0 walks.
if ! grep -q '"walks":0[,}]' "$runfile/manifest.json"; then
	echo "FAIL: interrupted job's run store is finalized" >&2
	exit 1
fi
echo "OK: interrupted job left an unfinalized run store at runs/run-$JOBBIG.crumbs"
echo "PASS: servesmoke"
