#!/usr/bin/env bash
# Builds the repository benchmark from the source tree it sits in and
# runs one workload.
#
# Usage (from the repository root):
#   bash perfbench/run.sh --workload paper-crawl|store-reanalyze|lazy-archive \
#       [--seed N] [--seconds S] [--trace 0|1]
#
# The binary, the Go build cache and the benchmark's scratch stores all
# live under .bench_build/ at the repository root; nothing is written
# outside the tree. The last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # Go's local telemetry counters
export GOTOOLCHAIN=local
export GOFLAGS=

# The revision is read only from a .git directory at the root itself, so
# an exported source tree reports "unknown" instead of whatever
# repository happens to enclose it.
rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null 2>&1; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
	if [ "$rev" != unknown ] && [ -n "$(git -C "$root" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
		rev="$rev+dirty"
	fi
fi

(cd "$root/perfbench" && go build -buildvcs=false -ldflags "-X main.gitRevision=$rev" \
	-o "$build/perfbench" .)

cd "$root"
exec "$build/perfbench" --workdir "$build/work" "$@"
