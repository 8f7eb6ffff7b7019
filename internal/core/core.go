// Package core wires the full CrumbCruncher pipeline end to end: build
// the synthetic web, run the four-crawler measurement crawl, extract and
// identify UIDs, and expose the analysis that reproduces every table and
// figure in the paper. The public crumbcruncher package is a facade over
// this package.
package core

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/category"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/entity"
	"crumbcruncher/internal/filterlist"
	"crumbcruncher/internal/publicsuffix"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/tokens"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Config configures a full pipeline run.
type Config struct {
	// World configures the synthetic web.
	World web.Config
	// Walks is the number of random walks (0: one per seeder).
	Walks int
	// StepsPerWalk is the walk length (0: the paper's 10).
	StepsPerWalk int
	// Parallelism bounds concurrency across the whole pipeline: the
	// number of concurrent walks during the crawl and the worker-pool
	// size of every post-crawl analysis stage (path reconstruction,
	// candidate extraction, UID identification, aggregation). Results
	// are byte-identical for any value: each walk runs on one goroutine
	// with its own virtual clock, so even the stored walk records are a
	// pure function of the configuration and the walk index. 0 means
	// sequential; DefaultConfig sets 12, the paper's EC2 count.
	Parallelism int
	// Machines is the number of simulated crawl machines the walks'
	// fingerprint surfaces are spread across (§3.8). 0 or 1 keeps every
	// walk on one machine; DefaultConfig sets the paper's 12 EC2
	// instances.
	Machines int
	// IframeBias is the controller's iframe preference (0: the 0.3
	// default; set NoIframes for a true zero).
	IframeBias float64
	// NoIframes forces a zero iframe preference, which IframeBias alone
	// cannot express (its zero value selects the default bias).
	NoIframes bool
	// Identify configures UID identification (zero value: the paper's
	// full method).
	Identify uid.Options
	// Retry is the crawl's navigation retry policy: capped exponential
	// backoff with seeded jitter, slept on the walk's virtual clock. The
	// zero value performs no retries.
	Retry resilience.Policy `json:"retry,omitempty"`
	// RequestDeadline, when > 0, makes the virtual network time out any
	// request whose latency (including injected spikes) would exceed it.
	RequestDeadline time.Duration `json:"request_deadline,omitempty"`
	// Store, when non-nil, is the run's walk log: the crawl appends each
	// finished walk to it, a crawl over an unfinalized store resumes the
	// walks it holds instead of crawling them again, and a successful
	// run stamps its provenance into the store and finalizes it.
	// Runtime wiring, not configuration.
	Store runstore.Store `json:"-"`
	// OnProgress, when non-nil, receives a progress snapshot every time
	// a walk completes or is analyzed. Called from crawl and analysis
	// goroutines (serialized internally); keep it fast. Runtime wiring.
	OnProgress func(Progress) `json:"-"`
	// Telemetry, when non-nil, observes the whole pipeline: spans and
	// metrics from the network simulator, browsers, crawler and every
	// analysis stage. It is runtime wiring, not configuration (not
	// serialized), and strictly observational: a run with telemetry
	// produces bit-identical results to one without.
	Telemetry *telemetry.Telemetry `json:"-"`
}

// Hash returns the SHA-256 of the configuration's canonical JSON with
// every knob that provably cannot change run results normalized away:
// Parallelism is zeroed (every pipeline stage is bit-identical at any
// pool size) and the runtime wiring (Telemetry, Store, OnProgress)
// never serializes. Two configs with equal hashes therefore produce
// byte-identical runs, which is exactly the contract the serve layer's
// world cache and run provenance need: a scheduling knob must never
// fragment the world cache or make two reruns of the same study look
// like different studies.
func (cfg Config) Hash() string {
	cfg.Parallelism = 0
	cfg.Telemetry = nil
	cfg.Store = nil
	cfg.OnProgress = nil
	// The method-free alias keeps telemetry.ConfigHash on its generic
	// JSON path instead of recursing back into Hash via the Hasher
	// interface.
	type canonical Config
	// Config used to carry a circuit-breaker setting, serialized as
	// "breaker":{} right before request_deadline in every configuration
	// this code can run. The hashed form keeps that key in its place
	// (the outer request_deadline hides the embedded one), so removing
	// the field re-keys no world cache and no stored run.
	type hashed struct {
		canonical
		Breaker         struct{}      `json:"breaker"`
		RequestDeadline time.Duration `json:"request_deadline,omitempty"`
	}
	return telemetry.ConfigHash(hashed{canonical: canonical(cfg), RequestDeadline: cfg.RequestDeadline})
}

// analysisParallelism is the worker-pool size for the post-crawl stages.
func (cfg Config) analysisParallelism() int {
	if cfg.Parallelism < 1 {
		return 1
	}
	return cfg.Parallelism
}

// DefaultConfig returns the paper-scale configuration: the default world
// with one walk per seeder domain.
func DefaultConfig() Config {
	w := web.DefaultConfig()
	return Config{World: w, Walks: 2000, Parallelism: 12, Machines: 12}
}

// SmallConfig returns a fast configuration for tests and examples.
func SmallConfig() Config {
	return Config{World: web.SmallConfig(), Walks: 30, Parallelism: 4}
}

// Run is a completed pipeline run.
type Run struct {
	Config     Config
	World      *web.World
	Dataset    *crawler.Dataset
	Paths      []*tokens.Path
	Candidates []*tokens.Candidate
	Cases      []*uid.Case
	Stats      uid.Stats
	Analysis   *analysis.Analysis
	Lifetimes  *uid.LifetimeIndex
}

// Execute runs the full pipeline.
func Execute(cfg Config) (*Run, error) {
	return ExecuteContext(context.Background(), cfg)
}

// ExecuteContext runs the full pipeline under ctx. Cancelling mid-crawl
// drains in-flight walks gracefully (recording them to the run's store,
// when one is attached, which stays unfinalized and resumable) and
// returns ctx's error; the analysis stages are skipped for interrupted
// crawls.
//
// Execution streams: completed walks flow straight into token
// extraction and UID grouping while the crawl is still running, and
// only the final merge waits for the last walk.
func ExecuteContext(ctx context.Context, cfg Config) (*Run, error) {
	sp := cfg.Telemetry.StartSpan("core", "build_world")
	world := web.BuildWorld(cfg.World)
	sp.End()
	return executeInWorld(ctx, cfg, world)
}

// ExecuteInWorld is ExecuteContext over a pre-built world: the crawl
// runs against the supplied world instead of constructing one from
// cfg.World. This is the serve layer's entry point — its world cache
// builds one template per distinct configuration and hands every job a
// run-private fork.
//
// The world must have been built from exactly cfg.World (the pair is
// validated, because walk counts and seeds are derived from the config
// while pages come from the world), and it must be private to this run:
// a World carries per-run mutable state — the virtual network with its
// counters, and the deterministic visit counters — so concurrent runs must
// each bring their own (see web.World.Fork). Results are byte-identical
// to ExecuteContext with the same configuration.
func ExecuteInWorld(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	if world.Config() != cfg.World {
		return nil, fmt.Errorf("core: world was built from a different configuration than cfg.World")
	}
	return executeInWorld(ctx, cfg, world)
}

// executeInWorld wires telemetry and deadlines into the world's network
// and runs the analysis engine fed by a live crawl of it: the crawler's
// WalkSink delivers each walk as it finishes, and the crawled Dataset is
// the source the figures aggregate over. A successful run finalizes its
// store.
func executeInWorld(ctx context.Context, cfg Config, world *web.World) (*Run, error) {
	// Binds the run's registry to the network; a nil Telemetry leaves
	// the network on its private registry.
	world.Network().SetTelemetry(cfg.Telemetry)
	if cfg.RequestDeadline > 0 {
		world.Network().SetRequestDeadline(cfg.RequestDeadline)
	}
	run, err := analyzeWalks(ctx, cfg, world, cfg.walkCount(world), func(send func(*crawler.Walk)) (analysis.WalkSource, error) {
		ccfg := cfg.crawlConfig(world)
		ccfg.WalkSink = send
		csp := cfg.Telemetry.StartSpan("core", "crawl")
		// CrawlContext only returns once every walk goroutine — and with
		// it every WalkSink call — has finished.
		ds, err := crawler.CrawlContext(ctx, ccfg)
		if err != nil {
			csp.EndErr(err)
			return nil, fmt.Errorf("core: crawl: %w", err)
		}
		csp.End()
		return ds, nil
	})
	if err != nil || cfg.Store == nil {
		return run, err
	}
	if err := sealStore(cfg); err != nil {
		return nil, err
	}
	return run, nil
}

// walkCount resolves the effective number of walks (0 means one per
// seeder, mirroring the crawler's default).
func (cfg Config) walkCount(world *web.World) int {
	if cfg.Walks > 0 {
		return cfg.Walks
	}
	return world.NumSeeders()
}

// crawlConfig translates the run configuration into the crawler's: every
// crawl-affecting knob (including Machines and NoIframes — see their
// field docs) must pass through here rather than being hard-coded.
func (cfg Config) crawlConfig(world *web.World) crawler.Config {
	// Walk i seeds from Seeders[i mod len], so a k-walk crawl only ever
	// consults the first min(k, NumSites) seeders — at million-site
	// scale the full Tranco-style list is never materialised.
	ccfg := crawler.Config{
		Seed:         cfg.World.Seed,
		Network:      world.Network(),
		Seeders:      world.SeedersN(cfg.walkCount(world)),
		Walks:        cfg.Walks,
		StepsPerWalk: cfg.StepsPerWalk,
		Parallelism:  cfg.Parallelism,
		IframeBias:   cfg.IframeBias,
		NoIframes:    cfg.NoIframes,
		Machines:     cfg.Machines,
		Telemetry:    cfg.Telemetry,
		Retry:        cfg.Retry,
	}
	if cfg.Store != nil {
		ccfg.Log = storeLog{cfg.Store}
	}
	return ccfg
}

// Analyze runs the post-crawl pipeline over an existing dataset (used by
// cmd/crumbreport to re-analyse saved crawls and by ablations to re-run
// identification with different options).
func Analyze(cfg Config, world *web.World, ds *crawler.Dataset) (*Run, error) {
	return AnalyzeContext(context.Background(), cfg, world, ds)
}

// AnalyzeContext is Analyze bounded by ctx: the dataset's walks feed the
// engine a live crawl uses, at cfg.Parallelism workers, so the output is
// bit-identical to the crawl's own analysis. Cancellation stops the feed
// between walks and returns ctx's error.
func AnalyzeContext(ctx context.Context, cfg Config, world *web.World, ds *crawler.Dataset) (*Run, error) {
	return AnalyzeSource(ctx, cfg, world, ds)
}

// Reidentify re-runs UID identification with different options over the
// run's candidates (ablation benchmarks) and returns a fresh analysis.
// The walks are unchanged, so the fresh analysis reuses the run's walk
// tally instead of re-reading them.
func (r *Run) Reidentify(opt uid.Options) ([]*uid.Case, uid.Stats, *analysis.Analysis) {
	if opt.LifetimeOf == nil {
		opt.LifetimeOf = r.Lifetimes.Lifetime
	}
	par := r.Config.analysisParallelism()
	if opt.Parallelism == 0 {
		opt.Parallelism = par
	}
	cases, stats := uid.Identify(r.Candidates, opt)
	agg, _ := analysis.NewFromTally(context.Background(), r.Analysis.Source(), r.Analysis.Tally(), r.Paths, cases, par, nil)
	return cases, stats, agg
}

// Attributor builds the paper's two-stage organisation attribution: the
// (partial) Disconnect-style entity list, backed by the manual research
// map (complete in the synthetic world).
func (r *Run) Attributor() *entity.Attributor {
	return entity.NewAttributor(
		entity.NewList(r.World.EntityListDomains()),
		entity.NewList(r.World.Organizations()),
	)
}

// Taxonomy builds the Webshrinker-style category lookup.
func (r *Run) Taxonomy() *category.Taxonomy {
	return category.New(r.World.Categories())
}

// DisconnectDomains builds the Disconnect-style tracker list.
func (r *Run) DisconnectDomains() *filterlist.DomainList {
	return filterlist.NewDomainList(r.World.DisconnectList())
}

// EasyList builds the EasyList-style filter list.
func (r *Run) EasyList() *filterlist.List {
	return filterlist.Parse(r.World.EasyListRules())
}

// TruthEval scores the pipeline against the generator's ground truth.
type TruthEval struct {
	// Cases is the number of confirmed UID cases.
	Cases int
	// TruePositive cases have parameter names the world registered as
	// UID-carrying.
	TruePositive int
	// FalsePositive cases carry any other parameter.
	FalsePositive int
}

// Precision returns TP / (TP + FP). With no cases at all it returns 1.0
// (vacuous truth): an empty run made no false claims, and dashboards
// should not read it as 0% precision.
func (e TruthEval) Precision() float64 {
	if e.Cases == 0 {
		return 1
	}
	return float64(e.TruePositive) / float64(e.Cases)
}

// EvaluateTruth compares confirmed cases against ground truth. Only
// evaluation code may consult the world's Truth registry; the pipeline
// itself never does.
func (r *Run) EvaluateTruth() TruthEval {
	var e TruthEval
	truth := r.World.Truth()
	for _, c := range r.Cases {
		e.Cases++
		if truth.IsUIDParam(c.Group.Name) {
			e.TruePositive++
		} else {
			e.FalsePositive++
		}
	}
	return e
}

// MissedRefererTransfers counts UID transfers that rode the Referer
// header across a first-party boundary instead of the navigation URL —
// the §6 limitation: CrumbCruncher "only look[s] for UIDs that are
// transferred in the query parameters of URLs", so these are invisible to
// the pipeline. Ground truth identifies the UID parameters; this is
// evaluation-only code.
func (r *Run) MissedRefererTransfers() int {
	truth := r.World.Truth()
	// The analysis source is the resident dataset or, for a store-backed
	// run (AnalyzeStore), a replay of the store. The per-walk count
	// dedups on keys embedding the walk index, so replay order cannot
	// change the total.
	seen := map[string]bool{}
	count := 0
	r.Analysis.Source().ForEachWalk(func(w *crawler.Walk) error {
		count += countWalkRefererTransfers(w, truth.IsUIDParam, seen)
		return nil
	})
	return count
}

// CountRefererTransfers counts cross-site navigations whose Referer query
// string carried a UID parameter (per isUID) that the navigation URL
// itself did not. Every distinct value of a repeated parameter counts,
// deduplicated per (walk, step, crawler, param, value).
func CountRefererTransfers(ds *crawler.Dataset, isUID func(param string) bool) int {
	seen := map[string]bool{}
	count := 0
	for _, w := range ds.Walks {
		count += countWalkRefererTransfers(w, isUID, seen)
	}
	return count
}

// countWalkRefererTransfers folds one walk into the referer-transfer
// count. The dedup keys embed the walk index, so the tally is the same
// whether walks arrive from a dataset slice or a store cursor.
func countWalkRefererTransfers(w *crawler.Walk, isUID func(param string) bool, seen map[string]bool) int {
	count := 0
	for _, s := range w.Steps {
		for name, rec := range s.Records {
			for _, req := range rec.Requests {
				if req.Kind != "navigation" || req.Referer == "" {
					continue
				}
				ref, err := url.Parse(req.Referer)
				if err != nil {
					continue
				}
				target, err := url.Parse(req.URL)
				if err != nil {
					continue
				}
				if publicsuffix.SameSite(ref.Hostname(), target.Hostname()) {
					continue
				}
				targetQ := target.Query()
				for param, vs := range ref.Query() {
					if !isUID(param) {
						continue
					}
					if targetQ.Get(param) != "" {
						continue // also in the URL: the pipeline sees it
					}
					// Count every value of a repeated parameter, not
					// just the first.
					for _, v := range vs {
						key := fmt.Sprintf("%d/%d/%s/%s/%s", w.Index, s.Index, name, param, v)
						if !seen[key] {
							seen[key] = true
							count++
						}
					}
				}
			}
		}
	}
	return count
}
