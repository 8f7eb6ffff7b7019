// Package crumbcruncher is a from-scratch Go reproduction of
// "Measuring UID Smuggling in the Wild" (Randall et al., IMC 2022): the
// CrumbCruncher measurement system — four synchronized crawlers, a central
// controller, and a token-analysis pipeline — together with the
// synthetic-web substrate it runs on (virtual network, simulated browser
// with partitioned storage, generated tracker ecosystem).
//
// The Runner is the entry point; a one-call run of the entire study:
//
//	run, err := crumbcruncher.NewRunner(crumbcruncher.DefaultConfig()).Run(context.Background())
//	if err != nil { ... }
//	crumbcruncher.WriteReport(os.Stdout, run)
//
// Options wire in the cross-cutting concerns — WithTelemetry,
// WithRetryPolicy, WithRunStore, WithProgress — without touching the
// Config literal. By default execution streams: finished walks flow
// through token extraction and UID classification while the crawl is
// still running (see DESIGN.md §8).
//
// Results carry every table and figure from the paper's evaluation:
// run.Analysis exposes Table 2's summary, Table 3's redirector ranking,
// Figures 4–8, the headline smuggling rate, bounce tracking, the
// fingerprinting experiment and blocklist coverage; run.Cases are the
// confirmed UID smuggling instances with their Table 1 buckets.
package crumbcruncher

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"

	"crumbcruncher/internal/analysis"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/countermeasures"
	"crumbcruncher/internal/crawler"
	"crumbcruncher/internal/report"
	"crumbcruncher/internal/resilience"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/uid"
	"crumbcruncher/internal/web"
)

// Config configures a full pipeline run. See DefaultConfig and
// SmallConfig for starting points.
type Config = core.Config

// WorldConfig configures the synthetic web (Config.World).
type WorldConfig = web.Config

// Run is a completed pipeline run: the world, the crawl dataset, the
// candidate tokens, the confirmed UID cases and the analysis over them.
type Run = core.Run

// Case is one confirmed UID smuggling instance.
type Case = uid.Case

// IdentifyOptions configures the UID identification stage; the zero value
// is the paper's full method. Its baseline fields (two-crawler subsets,
// lifetime thresholds, Ratcliff/Obershelp slack) reproduce the prior-work
// strategies CrumbCruncher improves on.
type IdentifyOptions = uid.Options

// Analysis exposes every table and figure of the paper's evaluation.
type Analysis = analysis.Analysis

// Dataset is a complete crawl recording.
type Dataset = crawler.Dataset

// DefaultConfig returns the calibrated paper-scale configuration
// (EXPERIMENTS.md records how its measurements compare to the paper's).
func DefaultConfig() Config { return core.DefaultConfig() }

// SmallConfig returns a fast configuration for demos and tests.
func SmallConfig() Config { return core.SmallConfig() }

// Progress is a snapshot of a run's advancement, delivered to the
// WithProgress callback as walks complete and get analysed.
type Progress = core.Progress

// Option customizes a Runner at construction without the caller
// mutating a Config literal.
type Option func(*Config)

// WithTelemetry attaches an observability handle to the run.
func WithTelemetry(t *Telemetry) Option {
	return func(c *Config) { c.Telemetry = t }
}

// WithRetryPolicy sets the crawl's navigation retry policy.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Config) { c.Retry = p }
}

// WithRunStore makes st the run's walk log (Config.Store): the crawl
// appends each walk to it as the walk finishes, a run over an
// unfinalized store resumes the walks it holds, and a successful run
// finalizes it. Open st with OpenWalkLog.
func WithRunStore(st RunStore) Option {
	return func(c *Config) { c.Store = st }
}

// WithProgress registers a callback invoked with a Progress snapshot as
// walks complete and get analysed. Called from pipeline goroutines
// (serialized); keep it fast.
func WithProgress(fn func(Progress)) Option {
	return func(c *Config) { c.OnProgress = fn }
}

// Runner is the consolidated entry point: a configured pipeline that
// can execute the full study (Run) or re-run the post-crawl analysis
// over an existing dataset (Reanalyze).
type Runner struct {
	cfg Config
}

// NewRunner builds a Runner from a base configuration and options.
// The Config is copied; later mutations of the caller's value do not
// affect the Runner.
func NewRunner(cfg Config, opts ...Option) *Runner {
	for _, o := range opts {
		o(&cfg)
	}
	return &Runner{cfg: cfg}
}

// Config returns the Runner's effective configuration (options applied).
func (r *Runner) Config() Config { return r.cfg }

// Run builds the synthetic web, runs the four-crawler crawl and the
// token pipeline, and returns the analysed run. When ctx is cancelled
// the crawl drains gracefully — in-flight walks finish, unstarted walks
// are recorded as skipped — and ctx's error is returned. Pair with
// WithRunStore to resume later.
//
// The analysis streams alongside the crawl: each finished walk is
// analyzed while later walks are still being crawled.
func (r *Runner) Run(ctx context.Context) (*Run, error) {
	return core.ExecuteContext(ctx, r.cfg)
}

// Reanalyze re-runs the post-crawl pipeline (path reconstruction,
// candidate extraction, UID identification, aggregation) over run's
// recorded walks — its dataset, or the store it was loaded from — under
// the Runner's configuration, e.g. a different Parallelism or
// identification options, through the same engine Run uses. The crawl
// is not repeated; results are bit-identical for any Parallelism.
// Cancelling ctx stops the walk feed and returns ctx's error.
func (r *Runner) Reanalyze(ctx context.Context, run *Run) (*Run, error) {
	return core.AnalyzeSource(ctx, r.cfg, run.World, run.Analysis.Source())
}

// --- Resilience -------------------------------------------------------------

// RetryPolicy bounds retry sequences for seed navigations and step
// clicks (Config.Retry). The zero value disables retries.
type RetryPolicy = resilience.Policy

// DefaultRetryPolicy returns the standard capped-exponential-backoff
// policy: 3 attempts, 500ms base, 8s cap, 2x multiplier, 20% jitter.
// All waiting is virtual-clock time; no wall time is spent.
func DefaultRetryPolicy() RetryPolicy { return resilience.DefaultPolicy() }

// WriteReport renders the full evaluation report — every table and figure
// — as text.
func WriteReport(w io.Writer, r *Run) { report.Render(w, r) }

// --- Observability ----------------------------------------------------------

// Telemetry is the pipeline's observability handle: a span tracer
// timing every layer in wall time plus a registry of counters, gauges
// and histograms. Attach one via Config.Telemetry; a nil handle disables all
// instrumentation at zero cost, and enabling it never changes run
// results.
type Telemetry = telemetry.Telemetry

// Provenance is the self-describing header embedded in saved runs: seed,
// config hash, build identity and (when a run was traced) a telemetry
// summary.
type Provenance = telemetry.Provenance

// TraceSummary aggregates an exported trace (see cmd/crumbtrace).
type TraceSummary = telemetry.TraceSummary

// NewTelemetry returns a telemetry handle with the default span
// capacity. Its spans carry no virtual timestamps: every walk of a run
// keeps its own virtual time, so there is no run-wide clock to stamp
// them from.
func NewTelemetry() *Telemetry { return telemetry.New(nil, telemetry.DefaultSpanCapacity) }

// WriteTrace exports a traced run's spans as JSONL for cmd/crumbtrace.
func WriteTrace(path string, t *Telemetry) error {
	return t.Tracer().WriteJSONLFile(path)
}

// --- Run storage (RunStore API) ----------------------------------------------

// RunStore is one recorded crawl: append walks as they complete, fetch
// one walk by index, or stream the whole run through a cursor without
// ever materialising the decoded dataset in memory. Every store is a
// directory of gzip-compressed walk segments with a sidecar index (see
// internal/runstore).
type RunStore = runstore.Store

// RunCursor iterates a RunStore's walks in ascending index order; Next
// returns io.EOF after the last walk.
type RunCursor = runstore.Cursor

// RunManifest identifies a stored run: seed, crawler roster, walk
// count, and the raw configuration and provenance documents.
type RunManifest = runstore.Manifest

// CreateRunStore makes a new, empty run store — a segment directory —
// at path for a crawl with the given configuration. The tools name
// stores "*.crumbs", but any path works; an existing regular file there
// is refused, never overwritten.
func CreateRunStore(path string, cfg Config) (RunStore, error) {
	m, err := core.StoreManifest(cfg)
	if err != nil {
		return nil, err
	}
	return runstore.Create(path, m)
}

// OpenWalkLog opens the walk log for a crawl with cfg: it creates a run
// store at path, or reopens the unfinalized store an interrupted crawl
// left there so that a run with WithRunStore resumes it (Walks reports
// how many walks it already holds). A finalized store is refused, and so
// is a store recorded under another configuration: its config hash must
// be cfg.Hash(), which leaves Parallelism free to change. A torn final
// record is left out of the walks the store holds, and truncated away
// by its first write; a refused store is left as it was. Every record
// of a reopened store is
// verified before it is returned. Damage returns an error matching
// errors.Is(err, runstore.ErrCorrupt) and moves the damage aside: the
// whole store to "<path>.corrupt" for a damaged sealed segment, the
// unsealed segment alone otherwise, after which a retry starts fresh
// or resumes from the intact segments. A path that is not a directory
// is refused and left unchanged.
func OpenWalkLog(path string, cfg Config) (RunStore, error) {
	st, err := runstore.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return CreateRunStore(path, cfg)
	}
	if err != nil {
		return nil, err
	}
	if st.Finalized() {
		st.Close()
		return nil, fmt.Errorf("crumbcruncher: %s is a finalized run store, not a resumable walk log", path)
	}
	var prov Provenance // unreadable provenance leaves the hash empty: refused below
	_ = json.Unmarshal(st.Manifest().Provenance, &prov)
	if want := cfg.Hash(); prov.ConfigHash != want {
		st.Close()
		return nil, fmt.Errorf("crumbcruncher: %s was recorded with config hash %q, this run has %q", path, prov.ConfigHash, want)
	}
	if err := runstore.Verify(st); err != nil {
		return nil, err // Verify closed st and quarantined a damaged store
	}
	return st, nil
}

// OpenRunStore opens an existing run store. A path that is not a
// directory, such as a line-file store from before every store was a
// segment directory, is refused and left unchanged.
func OpenRunStore(path string) (RunStore, error) { return runstore.Open(path) }

// SaveRunStore writes a completed run's crawl to a new store at path
// and finalizes it.
func SaveRunStore(path string, r *Run) error {
	st, err := CreateRunStore(path, r.Config)
	if err != nil {
		return err
	}
	// The analysis source is the run's dataset or, for a store-analyzed
	// run, the store it was loaded from.
	if werr := r.Analysis.Source().ForEachWalk(st.Append); werr != nil {
		st.Close()
		return werr
	}
	if err := st.Finalize(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// AnalyzeStore re-runs the analysis pipeline over a stored run in one
// pass: walks are fetched with st.Get from Parallelism goroutines and
// stream through token extraction, lifetime scanning, UID
// identification and the walk tally, so the decoded dataset is never
// resident all at once and metrics need no second read of the store.
// The returned Run has a nil Dataset and keeps reading from st lazily
// for the report figures that need walk records — close st only after
// the Run is no longer used. The synthetic world is rebuilt lazily from the stored
// configuration; results are byte-identical to re-analysing the same
// walks from a resident dataset. opts apply to the stored configuration
// before the analysis, e.g. to fetch and analyse at another Parallelism
// than the crawl's, still in one pass.
func AnalyzeStore(ctx context.Context, st RunStore, opts ...Option) (*Run, error) {
	m := st.Manifest()
	var cfg Config
	if len(m.Config) > 0 {
		if err := json.Unmarshal(m.Config, &cfg); err != nil {
			return nil, fmt.Errorf("crumbcruncher: stored config: %w", err)
		}
	}
	if cfg.World.Seed == 0 {
		cfg.World.Seed = m.Seed
	}
	for _, o := range opts {
		o(&cfg)
	}
	// Lazy world: figures only consult the world's ground truth and
	// lists, which are byte-identical in both modes, and a million-site
	// stored run must not pay an eager rebuild just to render a report.
	wcfg := cfg.World
	wcfg.Lazy = true
	world := web.BuildWorld(wcfg)
	return core.AnalyzeStore(ctx, cfg, world, st)
}

// --- Countermeasures (§7) ---------------------------------------------------

// Debouncer rewrites redirector navigations to their true destinations
// (Brave's defence).
type Debouncer = countermeasures.Debouncer

// NewDebouncer builds a Debouncer from known-smuggler hosts and a
// query-parameter blocklist.
func NewDebouncer(bounceHosts, stripParams []string) *Debouncer {
	return countermeasures.NewDebouncer(bounceHosts, stripParams)
}

// StripSuspectedUIDs removes known and UID-shaped query parameters from a
// URL — the paper's proposed mitigation.
func StripSuspectedUIDs(rawURL string, knownParams map[string]bool) string {
	return countermeasures.StripSuspectedUIDs(rawURL, knownParams)
}

// BreakageSummary tallies how pages degrade when their UID parameters are
// stripped (the §6 experiment).
type BreakageSummary = countermeasures.BreakageSummary
