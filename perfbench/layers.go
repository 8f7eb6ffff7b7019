package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/dom"
	"crumbcruncher/internal/netsim"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// perLayer are the traced run's metrics, named after the module each
// one measures. A "busy" figure sums the wall time of that module's
// existing spans; spans of concurrent walks overlap, so busy figures are
// CPU-time shares and need not add up to run_s. The other timings come
// from the benchmark's own calls into each layer's public functions.
var perLayer = []metricDef{
	{"web.build_s", "s"},
	{"web.distinct_hosts", "count"},
	{"netsim.requests", "count"},
	{"netsim.failure_ratio", "ratio"},
	{"netsim.roundtrip_busy_s", "s"},
	{"dom.parse_s", "s"},
	{"dom.bytes", "bytes"},
	{"browser.navigations", "count"},
	{"browser.navigate_busy_s", "s"},
	{"browser.scripts_busy_s", "s"},
	{"browser.beacons_fired", "count"},
	{"crawler.steps", "count"},
	{"crawler.step_fail_ratio", "ratio"},
	{"crawler.walk_busy_s", "s"},
	{"crawler.step_busy_s", "s"},
	{"crawler.step_self_s", "s"},
	{"core.crawl_s", "s"},
	{"core.stream_walk_busy_s", "s"},
	{"core.stream_drain_s", "s"},
	{"core.queue_depth_max", "count"},
	{"tokens.paths", "count"},
	{"tokens.candidates", "count"},
	{"tokens.extract_s", "s"},
	{"uid.groups", "count"},
	{"uid.cases", "count"},
	{"uid.confirm_ratio", "ratio"},
	{"uid.lifetimes_s", "s"},
	{"uid.identify_s", "s"},
	{"analysis.aggregate_s", "s"},
	{"analysis.render_s", "s"},
	{"runstore.iter_s", "s"},
	{"runstore.walks_decoded", "count"},
	{"runstore.decode_amplification", "ratio"},
	{"runstore.append_s", "s"},
	{"runstore.finalize_s", "s"},
	{"runstore.bytes_per_walk", "bytes"},
	{"telemetry.spans", "count"},
	{"telemetry.spans_dropped", "count"},
	{"telemetry.overhead_ratio", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
}

// tracer collects the traced run's per-layer values. A nil *tracer is
// an untraced run: every method is a no-op.
type tracer struct {
	tel    *telemetry.Telemetry
	values map[string]float64

	mu       sync.Mutex
	hosts    map[string]bool
	queueMax int
}

func newTracer() *tracer {
	return &tracer{
		tel:    telemetry.New(nil, spanCapacity),
		values: map[string]float64{},
		hosts:  map[string]bool{},
	}
}

func (tr *tracer) set(name string, v float64) {
	if tr != nil {
		tr.values[name] = v
	}
}

func (tr *tracer) setSince(name string, t0 time.Time) {
	tr.set(name, time.Since(t0).Seconds())
}

// telemetry is the handle a traced phase attaches (nil when untraced).
func (tr *tracer) telemetry() *telemetry.Telemetry {
	if tr == nil {
		return nil
	}
	return tr.tel
}

// observe attaches the traced crawl's instruments to cfg and net:
// telemetry, the streaming queue depth through Config.OnProgress, and
// every request host through netsim's observer hook. The returned
// function detaches the observer.
func (tr *tracer) observe(cfg *core.Config, net *netsim.Network) func() {
	cfg.Telemetry = tr.tel
	cfg.OnProgress = func(p core.Progress) {
		tr.mu.Lock()
		tr.queueMax = max(tr.queueMax, p.QueueDepth)
		tr.mu.Unlock()
	}
	sub := net.Observe(func(r *http.Request) {
		tr.mu.Lock()
		tr.hosts[r.URL.Hostname()] = true
		tr.mu.Unlock()
	})
	return sub.Cancel
}

// finish derives the span- and counter-based metrics once every traced
// phase has run. A trace whose span ring dropped anything is incomplete,
// and fails.
func (tr *tracer) finish() error {
	spans := tr.tel.Tracer().Spans()
	busy := map[string]float64{}
	seedURLs := map[string]bool{}
	for _, s := range spans {
		busy[s.Layer+"/"+s.Name] += float64(s.Wall) / 1e9
		if s.Layer == "crawler" && s.Name == "walk" {
			seedURLs["http://"+s.Attrs["seeder"]+"/"] = true
		}
	}
	// Step self time: step spans minus the navigations nested in them.
	// Spans carry no parent, so the navigations outside any step — each
	// walk's seed loads, whose URL is the seeder's root — are told apart
	// by URL; a click that lands on some seeder's bare root page is
	// counted as a seed load, which only ever overstates self time.
	var seedNav float64
	for _, s := range spans {
		if s.Layer == "browser" && s.Name == "navigate" && seedURLs[s.Attrs["url"]] {
			seedNav += float64(s.Wall) / 1e9
		}
	}
	tr.set("netsim.roundtrip_busy_s", busy["netsim/roundtrip"])
	tr.set("browser.navigate_busy_s", busy["browser/navigate"])
	tr.set("browser.scripts_busy_s", busy["browser/scripts"])
	tr.set("crawler.walk_busy_s", busy["crawler/walk"])
	tr.set("crawler.step_busy_s", busy["crawler/step"])
	tr.set("crawler.step_self_s", busy["crawler/step"]-(busy["browser/navigate"]-seedNav))
	tr.set("core.crawl_s", busy["core/crawl"])
	tr.set("core.stream_walk_busy_s", busy["analysis/stream_walk"])
	tr.set("core.stream_drain_s", busy["analysis/stream_drain"])

	reg := tr.tel.Registry()
	tr.set("browser.navigations", float64(reg.Counter("browser.navigations").Value()))
	tr.set("browser.beacons_fired", float64(reg.Counter("browser.beacons_fired").Value()))
	steps := reg.Counter("crawler.steps").Value()
	tr.set("crawler.steps", float64(steps))
	tr.set("crawler.step_fail_ratio", ratio(reg.Counter("crawler.step_failures").Value(), steps))

	tr.mu.Lock()
	tr.set("web.distinct_hosts", float64(len(tr.hosts)))
	tr.set("core.queue_depth_max", float64(tr.queueMax))
	tr.mu.Unlock()

	total, dropped := tr.tel.Tracer().Total(), tr.tel.Tracer().Dropped()
	tr.set("telemetry.spans", float64(total))
	tr.set("telemetry.spans_dropped", float64(dropped))
	if dropped > 0 {
		return fmt.Errorf("span ring dropped %d of %d spans", dropped, total)
	}
	return nil
}

func ratio(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// crawl runs the streaming pipeline over world. With tr it is the traced
// crawl, which also records the network's request counters.
func crawl(ctx context.Context, cfg core.Config, world *web.World, tr *tracer) (*core.Run, error) {
	if tr != nil {
		detach := tr.observe(&cfg, world.Network())
		defer detach()
	}
	r, err := core.ExecuteInWorld(ctx, cfg, world)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		n := world.Network()
		tr.set("netsim.requests", float64(n.RequestCount()))
		tr.set("netsim.failure_ratio", ratio(n.FailureCount(), n.RequestCount()))
	}
	return r, nil
}

// renderMetrics writes r's metrics JSON, the document every workload's
// output check compares.
func renderMetrics(r *core.Run, tr *tracer) ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	err := crumbcruncher.WriteMetricsJSON(&buf, r)
	tr.setSince("analysis.render_s", t0)
	return buf.Bytes(), err
}

// sameMetrics reports where two metrics documents first differ.
func sameMetrics(gotFrom string, got []byte, wantFrom string, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			return fmt.Errorf("%s metrics differ from %s at line %d: %q vs %q", gotFrom, wantFrom, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%s metrics differ from %s in length: %d vs %d lines", gotFrom, wantFrom, len(gl), len(wl))
}

// batchReanalyze re-runs the post-crawl pipeline over r's dataset stage
// by stage — the batch path of core.AnalyzeContext — and times each
// layer. It is the independent path the streaming engine's output is
// checked against.
func batchReanalyze(ctx context.Context, r *core.Run, tr *tracer) (*core.Run, error) {
	cfg, ds := r.Config, r.Dataset
	par := max(cfg.Parallelism, 1)

	t0 := time.Now()
	paths, err := tokens.PathsFromDatasetCtx(ctx, ds, par, nil)
	if err != nil {
		return nil, fmt.Errorf("paths: %w", err)
	}
	cands, err := tokens.AllCandidatesCtx(ctx, paths, par, nil)
	if err != nil {
		return nil, fmt.Errorf("candidates: %w", err)
	}
	tr.setSince("tokens.extract_s", t0)

	t0 = time.Now()
	lifetimes := uid.BuildLifetimeIndex(ds)
	tr.setSince("uid.lifetimes_s", t0)

	opt := cfg.Identify
	if opt.LifetimeOf == nil {
		opt.LifetimeOf = lifetimes.Lifetime
	}
	if opt.Parallelism == 0 {
		opt.Parallelism = par
	}
	t0 = time.Now()
	cases, stats, err := uid.IdentifyCtx(ctx, cands, opt)
	if err != nil {
		return nil, fmt.Errorf("identify: %w", err)
	}
	tr.setSince("uid.identify_s", t0)

	t0 = time.Now()
	agg, err := analysis.NewContext(ctx, ds, paths, cases, par, nil)
	if err != nil {
		return nil, fmt.Errorf("aggregate: %w", err)
	}
	tr.setSince("analysis.aggregate_s", t0)

	tr.setAnalysisCounts(len(paths), len(cands), stats)
	return &core.Run{
		Config: cfg, World: r.World, Dataset: ds,
		Paths: paths, Candidates: cands, Cases: cases, Stats: stats,
		Analysis: agg, Lifetimes: lifetimes,
	}, nil
}

func (tr *tracer) setAnalysisCounts(paths, cands int, stats uid.Stats) {
	tr.set("tokens.paths", float64(paths))
	tr.set("tokens.candidates", float64(cands))
	tr.set("uid.groups", float64(stats.Groups))
	tr.set("uid.cases", float64(stats.Final))
	tr.set("uid.confirm_ratio", ratio(int64(stats.Final), int64(stats.Groups)))
}

// domSample is how many seeder landing pages the dom probe parses, and
// domRounds how many times one timing parses the whole sample.
const domSample, domRounds = 64, 20

// probeTimings is how many times a layer probe repeats its timed calls;
// the probe reports the median. The layers' calls take milliseconds,
// which a single timing on a shared host cannot resolve.
const probeTimings = 7

// repeat runs probe probeTimings times against scratch tracers and
// records the median of every value it sets. Each run starts right after
// a collection, so that collecting the traced run's large heap does not
// land inside a timing by chance.
func (tr *tracer) repeat(probe func(*tracer) error) error {
	runs := map[string][]float64{}
	for i := 0; i < probeTimings; i++ {
		runtime.GC()
		scratch := &tracer{values: map[string]float64{}}
		if err := probe(scratch); err != nil {
			return err
		}
		for k, v := range scratch.values {
			runs[k] = append(runs[k], v)
		}
	}
	for k, vs := range runs {
		tr.set(k, median(vs))
	}
	return nil
}

// probeDOM fetches a fixed sample of seeder landing pages through the
// world's network and times dom.Parse over domRounds passes of them.
func probeDOM(world *web.World, tr *tracer) error {
	client := world.Network().Client()
	var pages []string
	for _, s := range world.SeedersN(domSample) {
		resp, err := client.Get("http://" + s + "/")
		if err != nil {
			continue // the world's connect faults make some seeders unreachable
		}
		body, err := netsim.ReadBody(resp)
		if err == nil && resp.StatusCode == http.StatusOK {
			pages = append(pages, body)
		}
	}
	if len(pages) == 0 {
		return errors.New("dom probe: no seeder landing page loaded")
	}
	return tr.repeat(func(tr *tracer) error {
		var parsed, nodes int
		t0 := time.Now()
		for r := 0; r < domRounds; r++ {
			for _, p := range pages {
				nodes += len(dom.Parse(p).Children)
				parsed += len(p)
			}
		}
		tr.setSince("dom.parse_s", t0)
		tr.set("dom.bytes", float64(parsed))
		if nodes == 0 {
			return errors.New("dom probe: landing pages parsed to empty documents")
		}
		return nil
	})
}

// replayLayers re-runs a stored run's analysis layer by layer over its
// decoded walks: tokens.Accumulator, uid.LifetimeAccumulator and
// uid.StreamIdentifier — the accumulators core.AnalyzeStore feeds, in
// the same walk order — timing each layer's calls, then the figure
// aggregation. It must reproduce ref's counts.
func replayLayers(ctx context.Context, cfg core.Config, walks []*crawler.Walk, ref *core.Run, tr *tracer) error {
	n := len(walks)
	par := max(cfg.Parallelism, 1)
	acc := tokens.NewAccumulator(cfg.World.Seed, n, crawler.AllCrawlers, nil)
	life := uid.NewLifetimeAccumulator(n)
	opt := cfg.Identify
	if opt.Parallelism == 0 {
		opt.Parallelism = par
	}
	ident := uid.NewStreamIdentifier(n, opt)

	var tok, lt, id time.Duration
	for _, w := range walks {
		t0 := time.Now()
		life.AddWalk(w)
		t1 := time.Now()
		wt := acc.AddWalk(w)
		t2 := time.Now()
		ident.AddWalk(w.Index, wt.Candidates)
		lt, tok, id = lt+t1.Sub(t0), tok+t2.Sub(t1), id+time.Since(t2)
	}
	t0 := time.Now()
	paths, cands := acc.Drain()
	tok += time.Since(t0)
	t0 = time.Now()
	lifetimes := life.Drain()
	lt += time.Since(t0)
	t0 = time.Now()
	cases, stats, err := ident.Drain(ctx, lifetimes)
	if err != nil {
		return fmt.Errorf("replay identify: %w", err)
	}
	id += time.Since(t0)
	tr.set("tokens.extract_s", tok.Seconds())
	tr.set("uid.lifetimes_s", lt.Seconds())
	tr.set("uid.identify_s", id.Seconds())

	ds := &crawler.Dataset{Seed: cfg.World.Seed, Crawlers: crawler.AllCrawlers, Walks: walks}
	t0 = time.Now()
	if _, err := analysis.NewFromSource(ctx, ds, paths, cases, par, nil); err != nil {
		return fmt.Errorf("replay aggregate: %w", err)
	}
	tr.setSince("analysis.aggregate_s", t0)

	tr.setAnalysisCounts(len(paths), len(cands), stats)
	if len(paths) != len(ref.Paths) || len(cands) != len(ref.Candidates) || stats.Final != ref.Stats.Final {
		return fmt.Errorf("replay found %d paths, %d candidates, %d cases; the analyzed run has %d, %d, %d",
			len(paths), len(cands), stats.Final, len(ref.Paths), len(ref.Candidates), ref.Stats.Final)
	}
	return nil
}
