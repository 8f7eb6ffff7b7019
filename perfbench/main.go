// Command perfbench is the repository benchmark. One process runs one
// workload (see workloads.go) for a time budget, checks every
// iteration's output against an independent path, and prints a JSON
// result as the last line of standard output: the end-to-end metrics of
// BENCHMARK.json, or with --trace 1 its per-layer metrics. The line
// before it stamps the host, build and configuration the numbers came
// from.
//
// Build and run it with run.sh, which compiles it from the source tree
// it sits in:
//
//	bash perfbench/run.sh --workload paper-crawl --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// gitRevision is stamped by run.sh at link time.
var gitRevision = "unknown"

// minSetups is how many set-ups a run times at least: setup_s reports
// their median, so a workload whose budget fits only one or two
// iterations still gets a steady set-up figure.
const minSetups = 9

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// small shrinks every workload to SmallConfig scale (self-test).
	small   bool
	workdir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies where and from what a result was measured, so
// numbers from different hosts or configurations are never compared
// silently.
type stamp struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	Trace       bool   `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitRevision string `json:"git_revision"`
	Parallelism int    `json:"parallelism"`
	ConfigHash  string `json:"config_hash"`
	Iterations  int    `json:"iterations"`
	// Samples are the per-iteration end-to-end values the medians are
	// taken over.
	Samples map[string][]float64 `json:"samples"`
	// Errors lists every failed operation.
	Errors []string `json:"errors,omitempty"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off.
var endToEnd = []metricDef{
	{"run_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

type metricDef struct{ name, unit string }

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement budget in seconds; one iteration always runs")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a separate traced iteration")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for run stores")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	dir, err := os.MkdirTemp(mkdirAll(*workdir), "run-")
	if err != nil {
		fail(err)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: dir}
	res, st, err := bench(context.Background(), *name, o)
	os.RemoveAll(dir)
	if err != nil {
		fail(err)
	}
	for _, v := range []any{map[string]stamp{"stamp": st}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
	}
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fail(err)
	}
	return dir
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// bench runs one workload: iterations until the budget is spent, extra
// set-ups up to minSetups, and with o.trace one more traced iteration
// plus the layer probes. An error here means the benchmark could not run
// at all; a failed iteration is counted in the result instead.
func bench(ctx context.Context, name string, o options) (result, stamp, error) {
	wl, err := newWorkload(name, o)
	if err != nil {
		return result{}, stamp{}, err
	}
	defer wl.cleanup()
	cfg := wl.config()
	st := stamp{
		Workload:    name,
		Seed:        o.seed,
		Trace:       o.trace,
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitRevision: gitRevision,
		Parallelism: cfg.Parallelism,
		ConfigHash:  cfg.Hash(),
		Samples:     map[string][]float64{},
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	if err := wl.prepare(ctx, tr); err != nil {
		return result{}, st, fmt.Errorf("%s: prepare: %w", name, err)
	}

	res := result{Correct: true, Metrics: map[string]metric{}}
	record := func(err error) {
		res.Attempted++
		if err != nil {
			res.Failed++
			st.Errors = append(st.Errors, err.Error())
		}
	}
	var samples []sample
	var setups []float64
	start := time.Now()
	for len(samples) == 0 || time.Since(start).Seconds() < o.seconds {
		s, err := measureIteration(ctx, wl)
		if s.setup > 0 {
			setups = append(setups, s.setup)
		}
		record(err)
		if err != nil {
			break // a broken workload is not measured further
		}
		samples = append(samples, s)
	}
	for len(setups) < minSetups && res.Failed == 0 {
		freeMemory()
		t0 := time.Now()
		it, err := wl.setup()
		if err != nil {
			return result{}, st, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		it.close()
	}
	st.Iterations = len(samples)
	st.Samples["setup_s"] = setups
	for _, d := range endToEnd[:4] {
		for _, s := range samples {
			st.Samples[d.name] = append(st.Samples[d.name], s.value(d.name))
		}
	}

	if o.trace {
		tr.set("runtime.gc_cycles", median(collect(samples, func(s sample) float64 { return float64(s.gcCycles) })))
		tr.set("runtime.gc_pause_s", median(collect(samples, func(s sample) float64 { return s.gcPause })))
		record(traceIteration(ctx, wl, tr, median(st.Samples["run_s"])))
		for _, d := range perLayer {
			v, ok := tr.values[d.name]
			if !ok {
				record(fmt.Errorf("%s: per-layer metric %s was not measured", name, d.name))
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
		}
	} else {
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: median(st.Samples[d.name]), Unit: d.unit}
		}
		// The crawl controller's 30 s barrier timers keep an iteration's
		// memory resident after it ends, so a later iteration's peak
		// depends on how many ran before it. The first iteration's peak
		// is the one every run measures alike.
		if len(samples) > 0 {
			res.Metrics["peak_rss_mb"] = metric{Value: samples[0].rssMB, Unit: "MB"}
		}
	}
	res.Correct = res.Failed == 0
	return res, st, nil
}

// sample is one iteration's end-to-end measurement.
type sample struct {
	setup, run, cpu float64 // seconds
	allocMB, rssMB  float64
	gcCycles        uint32
	gcPause         float64 // seconds
}

func (s sample) value(name string) float64 {
	switch name {
	case "run_s":
		return s.run
	case "cpu_s":
		return s.cpu
	case "alloc_mb":
		return s.allocMB
	case "peak_rss_mb":
		return s.rssMB
	}
	panic("perfbench: no sample field for " + name)
}

// measureIteration times one untraced iteration: set-up, then the timed
// phase, then the output check (untimed).
func measureIteration(ctx context.Context, wl workload) (sample, error) {
	var s sample
	freeMemory()
	t0 := time.Now()
	it, err := wl.setup()
	if err != nil {
		return s, fmt.Errorf("setup: %w", err)
	}
	defer it.close()
	s.setup = time.Since(t0).Seconds()

	resetPeakRSS()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 = time.Now()
	err = it.run(ctx, nil)
	s.run = time.Since(t0).Seconds()
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	s.rssMB = peakRSSMB()
	s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	s.gcCycles = m1.NumGC - m0.NumGC
	s.gcPause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9
	if err != nil {
		return s, fmt.Errorf("run: %w", err)
	}
	if err := it.check(); err != nil {
		return s, fmt.Errorf("check: %w", err)
	}
	return s, nil
}

// traceIteration runs one iteration with telemetry attached, checks it
// like any other, runs the workload's layer probes, and fills in the
// trace-derived metrics. untracedRun is the untraced run_s median the
// tracing overhead is measured against.
func traceIteration(ctx context.Context, wl workload, tr *tracer, untracedRun float64) error {
	freeMemory()
	it, err := wl.setup()
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer it.close()
	t0 := time.Now()
	err = it.run(ctx, tr)
	if untracedRun > 0 {
		tr.set("telemetry.overhead_ratio", time.Since(t0).Seconds()/untracedRun)
	}
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	if err := it.check(); err != nil {
		return fmt.Errorf("traced check: %w", err)
	}
	if err := it.probe(ctx, tr); err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	return tr.finish()
}

// freeMemory collects the previous iteration's garbage and returns it to
// the OS before the next iteration is measured.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

func collect(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// storeDir names a fresh run-store directory under the run's scratch
// directory.
func storeDir(o options, name string, n int) string {
	return filepath.Join(o.workdir, name+"-"+strconv.Itoa(n)+".crumbs")
}

// parallelism is the Config.Parallelism every workload runs with.
func parallelism() int { return runtime.NumCPU() }

// spanCapacity sizes the traced run's span ring. A paper-scale crawl
// records about 340k spans; telemetry.DefaultSpanCapacity (65,536) would
// silently drop most of them, and a traced run that drops any fails.
const spanCapacity = 1 << 20
