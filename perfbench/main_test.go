package main

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"slices"
	"sort"
	"testing"
)

// benchmarkFile is the metric contract, read from the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloadsEmitContract runs every workload at SmallConfig scale,
// untraced and traced, and checks that each run passes its output check
// and emits exactly the metrics BENCHMARK.json names, with its units.
func TestWorkloadsEmitContract(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{seed: 1, seconds: 0, trace: trace, small: true, workdir: t.TempDir()}
			res, st, err := bench(context.Background(), name, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d: %v",
					name, trace, res.Correct, res.Failed, res.Attempted, st.Errors)
			}
			got := map[string]string{}
			for k, m := range res.Metrics {
				got[k] = m.Unit
			}
			if !maps.Equal(got, want[trace]) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json names %v", name, trace, keys(got), keys(want[trace]))
			}
			if trace && res.Metrics["telemetry.spans_dropped"].Value != 0 {
				t.Errorf("%s: traced run dropped spans", name)
			}
			if !trace && st.ConfigHash == "" {
				t.Errorf("%s: result carries no config hash", name)
			}
		}
	}
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
