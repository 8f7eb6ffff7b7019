#!/bin/sh
# Runs the tracked benchmark set — the end-to-end crawl (BenchmarkCrawl),
# the parallel post-crawl re-analysis (BenchmarkAnalyzeParallel) and the
# streaming engine at pool sizes 1 and 4 (BenchmarkExecuteStreaming) —
# and archives the results as JSON for cross-run comparison.
#
# Usage: scripts/bench.sh [output.json]
# BENCHTIME overrides the per-benchmark iteration budget (default 1x:
# BenchmarkAnalyzeParallel's fixture is a paper-scale crawl).
set -eu
cd "$(dirname "$0")/.."

out="${1:-BENCH_pr6.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench '^(BenchmarkCrawl|BenchmarkAnalyzeParallel|BenchmarkExecuteStreaming)$' \
	-benchtime "${BENCHTIME:-1x}" -benchmem . | tee "$raw"

awk '
BEGIN { print "{"; printf "  \"benchmarks\": [" ; sep = "" }
/^Benchmark/ {
	printf "%s\n    {\"name\": \"%s\", \"iterations\": %s", sep, $1, $2
	for (i = 3; i < NF; i += 2) {
		key = $(i + 1)
		gsub(/["\\]/, "", key)
		printf ", \"%s\": %s", key, $i
	}
	printf "}"
	sep = ","
}
END { print "\n  ]"; print "}" }
' "$raw" >"$out"

echo "wrote $out"
