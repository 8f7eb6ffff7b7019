package crumbcruncher_test

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"crumbcruncher"
)

// faultyConfig is a small world where a slice of domains refuses
// connections, another slice fails transiently, and a third answers
// early attempts with 502/503 — crawled with the default retry policy.
func faultyConfig(seed int64, parallel int) crumbcruncher.Config {
	cfg := crumbcruncher.SmallConfig()
	cfg.World.Seed = seed
	cfg.Walks = 20
	cfg.Parallelism = parallel
	cfg.World.ConnectFailRate = 0.033
	cfg.World.TransientFailRate = 0.2
	cfg.World.HTTPDegradeRate = 0.15
	cfg.Retry = crumbcruncher.DefaultRetryPolicy()
	return cfg
}

func faultyMetricsJSON(t *testing.T, cfg crumbcruncher.Config) string {
	t.Helper()
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestResilientCrawlDeterminism is the resilience layer's acceptance
// check: with transient faults, degraded responses and retries all
// enabled, two runs of the same seed produce byte-identical metrics
// JSON — at Parallelism 1 and at Parallelism 8, and identical across
// the two parallelism levels.
func TestResilientCrawlDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 3} {
		base := faultyMetricsJSON(t, faultyConfig(seed, 1))
		if again := faultyMetricsJSON(t, faultyConfig(seed, 1)); again != base {
			t.Errorf("seed %d: metrics differ between identical runs at Parallelism 1:\n%s\nvs\n%s", seed, base, again)
		}
		p8 := faultyMetricsJSON(t, faultyConfig(seed, 8))
		if p8 != base {
			t.Errorf("seed %d: metrics at Parallelism 8 differ from Parallelism 1:\n%s\nvs\n%s", seed, base, p8)
		}
		if again := faultyMetricsJSON(t, faultyConfig(seed, 8)); again != p8 {
			t.Errorf("seed %d: metrics differ between identical runs at Parallelism 8", seed)
		}
		if !strings.Contains(base, "retried_requests") {
			t.Errorf("seed %d: faulty crawl reported no retried requests:\n%s", seed, base)
		}
	}
}

// TestResilienceInReport checks the rendered report splits the failure
// rate into transient-recovered and permanently-unreachable when the
// crawl saw faults.
func TestResilienceInReport(t *testing.T) {
	run, err := crumbcruncher.NewRunner(faultyConfig(2, 4)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	crumbcruncher.WriteReport(&b, run)
	if !strings.Contains(b.String(), "Resilience:") {
		t.Fatalf("report missing the resilience line:\n%s", b.String())
	}
}

// TestFaultMatrixSmoke is the CI fault-matrix job: it runs only when
// CC_FAULT_SMOKE=1, reads the connect-failure rate from
// CC_CONNECT_FAIL_RATE (the workflow sweeps 0, the paper's 0.033, and
// 0.2), layers transient faults and degraded responses on top, and
// asserts the pipeline completes degraded-not-errored under -race.
func TestFaultMatrixSmoke(t *testing.T) {
	if os.Getenv("CC_FAULT_SMOKE") != "1" {
		t.Skip("set CC_FAULT_SMOKE=1 to run the fault-matrix smoke test")
	}
	rate := 0.0
	if v := os.Getenv("CC_CONNECT_FAIL_RATE"); v != "" {
		var err error
		if rate, err = strconv.ParseFloat(v, 64); err != nil {
			t.Fatalf("CC_CONNECT_FAIL_RATE=%q: %v", v, err)
		}
	}
	cfg := faultyConfig(1, 4)
	cfg.Walks = 30
	cfg.World.ConnectFailRate = rate
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatalf("pipeline errored instead of degrading (connect-fail %v): %v", rate, err)
	}
	if run.Dataset.StepCount() == 0 {
		t.Fatal("crawl produced no steps")
	}
	for _, w := range run.Dataset.Walks {
		if w.Skipped {
			t.Fatalf("walk %d skipped in an uncancelled crawl", w.Index)
		}
	}
	var b strings.Builder
	crumbcruncher.WriteReport(&b, run)
	if !strings.Contains(b.String(), "Table 2") {
		t.Fatal("report incomplete under faults")
	}
}
