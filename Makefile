# Developer entry points. `make check` is the gate every change must
# pass: it builds everything, vets, runs crumblint (the project's own
# determinism/telemetry/resource-discipline analyzers, exactly as CI
# runs them),
# runs the full test suite with the race detector on — which exercises
# the parallel analysis pipeline's determinism tests (Parallelism
# 1/4/16) under -race — then the allocation ceilings without it, and
# finishes with the chaos smoke (kill, corrupt, recover, diff against a
# clean run; DESIGN.md §12).

GO ?= go

.PHONY: check build vet lint test race ceilings bench bench-all chaos scale

check: build vet lint race ceilings chaos

build:
	$(GO) build ./...

# vet also fails on gofmt drift. The lint fixtures under
# internal/lint/testdata keep their `// want` column layout, so that
# tree is exempt.
vet:
	$(GO) vet ./...
	@drift=$$(gofmt -l . | grep -v '^internal/lint/testdata/'); \
	if [ -n "$$drift" ]; then echo "gofmt -l reports unformatted files:"; echo "$$drift"; exit 1; fi

# crumblint: maporder, spanend, fsyncpolicy, plus the interprocedural
# resource-discipline suite (mustclose, poolreset, ctxflow,
# sharedwrite), over every package and its tests.
# It prints one `file:line:col: message [analyzer]` line per finding;
# any finding fails the build.
lint: bin/crumblint
	./bin/crumblint ./...

bin/crumblint: FORCE
	$(GO) build -o bin/crumblint ./cmd/crumblint

.PHONY: FORCE
FORCE:

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The page-load and beacon allocation ceilings skip under -race, whose
# sync.Pool drops recycled values at random, so they run here without
# it.
ceilings:
	$(GO) test -count=1 -run 'TestPageAllocsCeiling|TestPageBytesCeiling|TestBeaconFetchAllocsCeiling' ./internal/web ./internal/browser

# Crash-safety smoke: SIGKILL + bit-flip chaos at three process-level
# points, recovered metrics diffed byte-for-byte against clean runs.
chaos:
	scripts/chaossmoke.sh

# Scale smoke: 100k-domain lazy world crawled into the segment store
# under an RSS budget (warn-only), eager-vs-lazy and store-vs-crawl
# metrics diffed byte-for-byte.
scale:
	scripts/scalesmoke.sh

# Paired perfbench comparison of the working tree against a base
# revision (default HEAD~1), ABBA over five seeds, with a verdict per
# end-to-end metric against BENCHMARK.json's bounds. Pass options
# through BENCHFLAGS, e.g.
#   make bench BENCHFLAGS="--workload lazy-archive --pairs 10"
bench:
	scripts/benchpair.sh $(BENCHFLAGS)

# Paper-scale benchmarks: every table/figure plus the parallel-analysis
# speedup benchmark (BenchmarkAnalyzeParallel).
bench-all:
	$(GO) test -bench=. -benchmem ./...
