package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/web"
)

// The workloads, chosen to stress different layers:
//
//   - paper-crawl is the paper's study at full scale. Nearly all of its
//     time goes to the crawl layers (netsim, dom, browser, crawler); the
//     streaming analysis is a small tail. A gain in tokens or uid should
//     leave it unchanged.
//   - store-reanalyze re-analyzes paper-crawl's stored crawl, the way
//     `crumbreport -metrics` does. It runs no crawl layer: runstore
//     decoding plus tokens, uid and aggregation are all of its time.
//   - lazy-archive crawls a 100k-site lazy world, with twice the distinct
//     hosts per walk of paper-crawl (less reuse per host), and archives
//     the crawl into a segment store. Its store writes sit beside
//     store-reanalyze's reads, so a read-side gain that costs writes
//     shows.
//
// Every store uses the segment backend (".crumbs").
var workloadNames = []string{"paper-crawl", "store-reanalyze", "lazy-archive"}

// workload is one benchmark input.
type workload interface {
	// config is the pipeline configuration the workload runs.
	config() core.Config
	// prepare makes the inputs every iteration shares, outside any timed
	// region; tr is non-nil in the traced run.
	prepare(ctx context.Context, tr *tracer) error
	// setup builds one iteration's private state. Its duration is a
	// setup_s sample.
	setup() (iteration, error)
	cleanup()
}

// iteration is one execution of a workload.
type iteration interface {
	// run is the timed phase; tr is non-nil on the traced iteration.
	run(ctx context.Context, tr *tracer) error
	// check verifies run's output against an independent path.
	check() error
	// probe times the benchmark's own calls into each layer after the
	// traced iteration.
	probe(ctx context.Context, tr *tracer) error
	close()
}

func newWorkload(name string, o options) (workload, error) {
	switch name {
	case "paper-crawl":
		return &paperCrawl{o: o, cfg: paperConfig(o)}, nil
	case "store-reanalyze":
		return &storeReanalyze{o: o, cfg: paperConfig(o)}, nil
	case "lazy-archive":
		return &lazyArchive{o: o, cfg: lazyConfig(o)}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// paperConfig is core.DefaultConfig — an 800-site eager world and 2000
// walks of 10 steps — with one crawl and analysis worker per CPU.
func paperConfig(o options) core.Config {
	cfg := core.DefaultConfig()
	if o.small {
		cfg = core.SmallConfig()
	}
	cfg.World.Seed = o.seed
	cfg.Parallelism = parallelism()
	return cfg
}

// lazyConfig is 1000 walks over a 100k-site lazy world.
func lazyConfig(o options) core.Config {
	cfg := paperConfig(o)
	cfg.World.Lazy = true
	cfg.World.NumSites, cfg.Walks = 100_000, 1000
	if o.small {
		cfg.World.NumSites, cfg.Walks = 2000, 20
	}
	return cfg
}

// --- paper-crawl --------------------------------------------------------

// paperCrawl times a streaming Run over a freshly built eager world,
// then WriteMetricsJSON. Set-up is the world build.
type paperCrawl struct {
	o   options
	cfg core.Config
	// want is the metrics of the first iteration, which was checked
	// against the batch re-analysis; later iterations must match it.
	want []byte
}

func (p *paperCrawl) config() core.Config                    { return p.cfg }
func (p *paperCrawl) prepare(context.Context, *tracer) error { return nil }
func (p *paperCrawl) cleanup()                               {}

func (p *paperCrawl) setup() (iteration, error) {
	t0 := time.Now()
	world := web.BuildWorld(p.cfg.World)
	return &paperIter{p: p, world: world, build: time.Since(t0).Seconds()}, nil
}

type paperIter struct {
	p       *paperCrawl
	world   *web.World
	build   float64
	r       *core.Run
	metrics []byte
}

func (it *paperIter) run(ctx context.Context, tr *tracer) error {
	r, err := crawl(ctx, it.p.cfg, it.world, tr)
	if err != nil {
		return err
	}
	it.r = r
	it.metrics, err = renderMetrics(r, tr)
	return err
}

func (it *paperIter) check() error {
	if it.p.want != nil {
		return sameMetrics("streaming run", it.metrics, "first iteration", it.p.want)
	}
	batch, err := batchReanalyze(context.Background(), it.r, nil)
	if err != nil {
		return fmt.Errorf("batch re-analysis: %w", err)
	}
	want, err := renderMetrics(batch, nil)
	if err != nil {
		return err
	}
	if err := sameMetrics("streaming run", it.metrics, "batch re-analysis", want); err != nil {
		return err
	}
	it.p.want = it.metrics
	return nil
}

func (it *paperIter) probe(ctx context.Context, tr *tracer) error {
	tr.set("web.build_s", it.build)
	if err := probeBatch(ctx, it.r, tr); err != nil {
		return err
	}
	if err := probeDOM(it.world, tr); err != nil {
		return err
	}
	path := storeDir(it.p.o, "probe", 0)
	defer os.RemoveAll(path)
	if err := writeStore(path, it.r, tr); err != nil {
		return err
	}
	return probePass(path, tr)
}

func (it *paperIter) close() {}

// --- store-reanalyze ----------------------------------------------------

// storeReanalyze times core.AnalyzeStore plus WriteMetricsJSON over the
// segment store of paper-crawl's crawl for the same seed, which prepare
// records once. Set-up is opening the store and rebuilding the lazy
// world from its stored configuration.
type storeReanalyze struct {
	o    options
	cfg  core.Config
	path string
	// want is the metrics of the crawl that wrote the store.
	want []byte
}

func (s *storeReanalyze) config() core.Config { return s.cfg }
func (s *storeReanalyze) cleanup()            { os.RemoveAll(s.path) }

func (s *storeReanalyze) prepare(ctx context.Context, tr *tracer) error {
	r, err := crawl(ctx, s.cfg, web.BuildWorld(s.cfg.World), tr)
	if err != nil {
		return err
	}
	if s.want, err = renderMetrics(r, nil); err != nil {
		return err
	}
	s.path = storeDir(s.o, "input", 0)
	return writeStore(s.path, r, tr)
}

func (s *storeReanalyze) setup() (iteration, error) {
	st, err := runstore.Open(s.path)
	if err != nil {
		return nil, err
	}
	// The rest mirrors crumbcruncher.AnalyzeStore, which rebuilds the
	// world lazily from the stored configuration before analyzing.
	m := st.Manifest()
	var cfg core.Config
	if err := json.Unmarshal(m.Config, &cfg); err != nil {
		st.Close()
		return nil, fmt.Errorf("stored config: %w", err)
	}
	if cfg.World.Seed == 0 {
		cfg.World.Seed = m.Seed
	}
	wcfg := cfg.World
	wcfg.Lazy = true
	t0 := time.Now()
	world := web.BuildWorld(wcfg)
	return &reanalyzeIter{s: s, cfg: cfg, world: world, build: time.Since(t0).Seconds(),
		st: &countingStore{Store: st}}, nil
}

type reanalyzeIter struct {
	s       *storeReanalyze
	cfg     core.Config
	world   *web.World
	build   float64
	st      *countingStore
	r       *core.Run
	metrics []byte
}

func (it *reanalyzeIter) run(ctx context.Context, tr *tracer) error {
	cfg := it.cfg
	cfg.Telemetry = tr.telemetry()
	r, err := core.AnalyzeStore(ctx, cfg, it.world, it.st)
	if err != nil {
		return err
	}
	it.r = r
	it.metrics, err = renderMetrics(r, tr)
	it.st.report(tr)
	return err
}

func (it *reanalyzeIter) check() error {
	return sameMetrics("store re-analysis", it.metrics, "the crawl that wrote the store", it.s.want)
}

func (it *reanalyzeIter) probe(ctx context.Context, tr *tracer) error {
	tr.set("web.build_s", it.build)
	if err := probeDOM(it.world, tr); err != nil {
		return err
	}
	walks, err := probeIter(it.s.path, tr)
	if err != nil {
		return err
	}
	return tr.repeat(func(tr *tracer) error { return replayLayers(ctx, it.cfg, walks, it.r, tr) })
}

func (it *reanalyzeIter) close() { it.st.Close() }

// --- lazy-archive -------------------------------------------------------

// lazyArchive times a streaming Run over a fresh lazy world and the
// archive of its crawl into a new segment store, Finalize included.
// Set-up is building the lazy world's plan.
type lazyArchive struct {
	o      options
	cfg    core.Config
	stores int
}

func (l *lazyArchive) config() core.Config                    { return l.cfg }
func (l *lazyArchive) prepare(context.Context, *tracer) error { return nil }
func (l *lazyArchive) cleanup()                               {}

func (l *lazyArchive) setup() (iteration, error) {
	t0 := time.Now()
	world := web.BuildWorld(l.cfg.World)
	build := time.Since(t0).Seconds()
	l.stores++
	return &archiveIter{l: l, world: world, build: build, path: storeDir(l.o, "archive", l.stores)}, nil
}

type archiveIter struct {
	l     *lazyArchive
	world *web.World
	build float64
	path  string
	r     *core.Run
}

func (it *archiveIter) run(ctx context.Context, tr *tracer) error {
	r, err := crawl(ctx, it.l.cfg, it.world, tr)
	if err != nil {
		return err
	}
	it.r = r
	return writeStore(it.path, r, tr)
}

func (it *archiveIter) check() error { return checkArchive(it.path, it.r.Dataset) }

func (it *archiveIter) probe(ctx context.Context, tr *tracer) error {
	tr.set("web.build_s", it.build)
	if _, err := renderMetrics(it.r, tr); err != nil {
		return err
	}
	if err := probeBatch(ctx, it.r, tr); err != nil {
		return err
	}
	if err := probeDOM(it.world, tr); err != nil {
		return err
	}
	return probePass(it.path, tr)
}

// probeBatch times the stage-by-stage batch re-analysis of r's dataset.
func probeBatch(ctx context.Context, r *core.Run, tr *tracer) error {
	return tr.repeat(func(tr *tracer) error {
		_, err := batchReanalyze(ctx, r, tr)
		return err
	})
}

// probePass times one plain cursor pass over a store the workload wrote
// but does not read, so its decode count is that single pass.
func probePass(path string, tr *tracer) error {
	walks, err := probeIter(path, tr)
	if err != nil {
		return err
	}
	reportDecodes(tr, int64(len(walks)), int64(len(walks)))
	return nil
}

func (it *archiveIter) close() { os.RemoveAll(it.path) }
