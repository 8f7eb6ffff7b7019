package crumbcruncher_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"crumbcruncher"
)

func TestExecuteAndReport(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.Walks = 25
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Cases) == 0 {
		t.Fatal("no UID cases found")
	}
	var b strings.Builder
	crumbcruncher.WriteReport(&b, run)
	if !strings.Contains(b.String(), "Table 2") {
		t.Fatal("report incomplete")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.Walks = 15
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "crawl.crumbs")
	if err := crumbcruncher.SaveRunStore(path, run); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("saved store: %v %v", fi, err)
	}
	st, err := crumbcruncher.OpenRunStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	loaded, err := crumbcruncher.AnalyzeStore(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	// Re-analysis of the same dataset must reproduce the results exactly.
	if len(loaded.Cases) != len(run.Cases) {
		t.Fatalf("cases after reload: %d != %d", len(loaded.Cases), len(run.Cases))
	}
	if loaded.Analysis.SmugglingRate() != run.Analysis.SmugglingRate() {
		t.Fatal("smuggling rate changed across save/load")
	}
	s1, s2 := run.Analysis.Summarize(), loaded.Analysis.Summarize()
	if s1 != s2 {
		t.Fatalf("summaries differ: %+v vs %+v", s1, s2)
	}
}

func TestLoadRunMissingFile(t *testing.T) {
	if _, err := crumbcruncher.OpenRunStore(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("expected error")
	}
}

func TestPublicCountermeasures(t *testing.T) {
	d := crumbcruncher.NewDebouncer(nil, []string{"gclid"})
	res := d.Debounce("http://r.net/c?d=http%3A%2F%2Fshop.com%2F%3Fgclid%3Dabc12345678")
	if !res.Debounced || strings.Contains(res.URL, "gclid") {
		t.Fatalf("debounce: %+v", res)
	}
	got := crumbcruncher.StripSuspectedUIDs("http://shop.com/?x=4f2a9c1b7d8e0011aabb&lang=en-US", nil)
	if strings.Contains(got, "4f2a") || !strings.Contains(got, "lang") {
		t.Fatalf("strip: %q", got)
	}
}

func TestDatasetJSONRoundTrip(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.Walks = 10
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(run.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	var back crumbcruncher.Dataset
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.StepCount() != run.Dataset.StepCount() {
		t.Fatalf("steps: %d != %d", back.StepCount(), run.Dataset.StepCount())
	}
	if len(back.Walks) != len(run.Dataset.Walks) {
		t.Fatal("walks lost")
	}
	// Spot-check a deep field survives.
	for i, w := range run.Dataset.Walks {
		for j, s := range w.Steps {
			for name, rec := range s.Records {
				got := back.Walks[i].Steps[j].Records[name]
				if got == nil || got.StartURL != rec.StartURL || len(got.NavChain) != len(rec.NavChain) {
					t.Fatalf("record %d/%d/%s mismatched after round trip", i, j, name)
				}
			}
		}
	}
}

func TestComputeMetrics(t *testing.T) {
	cfg := crumbcruncher.SmallConfig()
	cfg.Walks = 20
	run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := crumbcruncher.ComputeMetrics(run)
	if m.Steps == 0 || m.UniqueURLPaths == 0 {
		t.Fatalf("metrics empty: %+v", m)
	}
	if m.ConfirmedUIDCases != len(run.Cases) {
		t.Fatal("case count mismatch")
	}
	var b strings.Builder
	if err := crumbcruncher.WriteMetricsJSON(&b, run); err != nil {
		t.Fatal(err)
	}
	var back crumbcruncher.Metrics
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.SmugglingRate != m.SmugglingRate {
		t.Fatal("JSON round trip changed metrics")
	}
}

// TestParallelAnalysisDeterminism is the acceptance check for the
// parallel post-crawl pipeline: re-analysing the same crawl at any
// worker-pool size must produce bit-identical metrics. Runs under -race
// via `make check`, which also exercises the merge paths for data races.
func TestParallelAnalysisDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := crumbcruncher.SmallConfig()
		cfg.World.Seed = seed
		cfg.Walks = 40
		cfg.Parallelism = 1
		run, err := crumbcruncher.NewRunner(cfg).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var base strings.Builder
		if err := crumbcruncher.WriteMetricsJSON(&base, run); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(base.String(), "confirmed_uid_cases") {
			t.Fatalf("seed %d: metrics incomplete", seed)
		}
		for _, par := range []int{4, 16} {
			pcfg := cfg
			pcfg.Parallelism = par
			prun, err := crumbcruncher.NewRunner(pcfg).Reanalyze(context.Background(), run)
			if err != nil {
				t.Fatal(err)
			}
			var got strings.Builder
			if err := crumbcruncher.WriteMetricsJSON(&got, prun); err != nil {
				t.Fatal(err)
			}
			if got.String() != base.String() {
				t.Errorf("seed %d: metrics at Parallelism=%d differ from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
					seed, par, base.String(), got.String())
			}
		}
	}
}
