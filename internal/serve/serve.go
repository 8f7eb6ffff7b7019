// Package serve is the resident multi-tenant service shape of
// CrumbCruncher: a long-lived process accepting crawl and reanalysis
// jobs over an HTTP/JSON API, executing them on a bounded worker pool
// fed by a priority queue, and serving their results, telemetry and
// persisted artifacts. Determinism survives multi-tenancy by
// construction: every job runs the ordinary core pipeline over a
// private world fork (see worldCache), so N concurrent jobs produce
// metrics byte-identical to the same jobs run solo.
//
// Timing discipline: run results are functions of the virtual clock,
// but a server also needs real timestamps (job queue/start/finish, rate
// limiting). Those route exclusively through telemetry.Stopwatch — the
// repo's one sanctioned wall-clock origin — and are reported as
// milliseconds since server start, never absolute times.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crumbcruncher"
	"crumbcruncher/internal/core"
	"crumbcruncher/internal/runstore"
	"crumbcruncher/internal/serve/queue"
	"crumbcruncher/internal/telemetry"
	"crumbcruncher/internal/web"
)

// Options configures a Server. The zero value is usable: 2 workers, a
// 64-deep queue, no admission limiting, no run store.
type Options struct {
	// Workers is the number of concurrent job executors (default 2).
	Workers int
	// QueueCapacity bounds the job queue (default 64; < 0: unbounded).
	QueueCapacity int
	// AdmitBurst/AdmitPerSecond configure token-bucket admission on
	// POST /jobs. Zero burst disables limiting.
	AdmitBurst     int
	AdmitPerSecond float64
	// StoreDir, when set, persists every crawl job's run store under
	// this directory: written as the job crawls, listed once it
	// succeeds.
	StoreDir string
	// SpanCapacity sizes each job's span tracer ring
	// (default telemetry.DefaultSpanCapacity).
	SpanCapacity int
	// RetryAfterSeconds is the Retry-After header on 503/429 responses
	// (default 5).
	RetryAfterSeconds int
	// Hooks are test-only chaos points; zero in production.
	Hooks Hooks
}

// Hooks are optional callbacks the chaos harness uses to reach inside
// the worker pool deterministically. All fields may be nil.
type Hooks struct {
	// BeforeJob runs on the worker goroutine just before a job's
	// pipeline starts. A panic here exercises the worker's panic
	// isolation exactly like a panic inside the pipeline would.
	BeforeJob func(jobID string, spec JobSpec)
}

// Server executes jobs and serves the HTTP API. Create with New, mount
// Handler, and call Drain on shutdown.
type Server struct {
	opts   Options
	watch  telemetry.Stopwatch
	tel    *telemetry.Telemetry // server-level registry (serve.* metrics)
	queue  *queue.Queue
	bucket *queue.Bucket
	cache  *worldCache
	store  *Store // nil without StoreDir
	mux    *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // submission order, for GET /jobs
	nextID int

	draining atomic.Bool
	busy     atomic.Int64
	wg       sync.WaitGroup
}

// New builds a Server and starts its worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.QueueCapacity == 0 {
		opts.QueueCapacity = 64
	}
	if opts.SpanCapacity <= 0 {
		opts.SpanCapacity = telemetry.DefaultSpanCapacity
	}
	if opts.RetryAfterSeconds <= 0 {
		opts.RetryAfterSeconds = 5
	}
	s := &Server{
		opts:  opts,
		watch: telemetry.StartStopwatch(),
		tel:   telemetry.New(nil, 1),
		queue: queue.New(opts.QueueCapacity),
		jobs:  make(map[string]*Job),
	}
	s.bucket = queue.NewBucket(opts.AdmitBurst, opts.AdmitPerSecond)
	s.cache = newWorldCache(s.tel)
	if opts.StoreDir != "" {
		store, err := OpenStore(opts.StoreDir, s.tel)
		if err != nil {
			return nil, err
		}
		s.store = store
		s.nextID = store.lastJob
	}
	s.routes()
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// uptimeMs is the server's age in milliseconds — the only wall-clock
// quantity the API ever reports.
func (s *Server) uptimeMs() int64 { return s.watch.ElapsedMicros() / 1000 }

// Drain performs graceful shutdown: new submissions get 503 +
// Retry-After, queued jobs are canceled, in-flight jobs are interrupted
// (their pipelines drain and their run files keep the completed walks
// for resume), and workers exit. It returns when the pool is idle or
// ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for _, v := range s.queue.Drain() {
		v.(*Job).markCanceled(true, s.uptimeMs())
	}
	for _, j := range s.snapshotJobs() {
		j.markCanceled(true, s.uptimeMs())
	}
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// snapshotJobs returns every known job in submission order.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// --- Workers ----------------------------------------------------------------

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		v, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.runJob(v.(*Job))
	}
}

func (s *Server) runJob(j *Job) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if j.Spec.TimeoutMs > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(j.Spec.TimeoutMs)*time.Millisecond)
		defer tcancel()
	}
	if !j.begin(cancel, s.uptimeMs()) {
		return // canceled while queued
	}
	s.busy.Add(1)
	defer s.busy.Add(-1)

	run, err := s.executeGuarded(ctx, j)
	now := s.uptimeMs()
	if err != nil {
		state := StateFailed
		switch {
		case errors.Is(ctx.Err(), context.DeadlineExceeded):
			// The job's own deadline fired: a failure with a timeout
			// cause, not a cancellation.
			err = fmt.Errorf("serve: job timed out after %dms: %w", j.Spec.TimeoutMs, err)
		case ctx.Err() != nil:
			// The pipeline drained after cancellation: a server drain
			// leaves a resumable job, an explicit DELETE a canceled one.
			state = StateCanceled
			j.mu.Lock()
			if j.drainedInRun {
				state = StateInterrupted
			}
			j.mu.Unlock()
		}
		s.tel.Counter("serve.jobs_" + state).Inc()
		j.finish(state, err.Error(), now)
		return
	}

	var metrics, report bytes.Buffer
	if err := crumbcruncher.WriteMetricsJSON(&metrics, run); err != nil {
		j.finish(StateFailed, err.Error(), now)
		return
	}
	crumbcruncher.WriteReport(&report, run)
	runID := ""
	if s.store != nil && j.Spec.Kind == KindCrawl {
		entry, err := s.store.Add(j.ID)
		if err != nil {
			j.finish(StateFailed, err.Error(), s.uptimeMs())
			return
		}
		runID = entry.ID
	}
	j.setResults(metrics.Bytes(), report.Bytes(), runID)
	s.tel.Counter("serve.jobs_done").Inc()
	j.finish(StateDone, "", s.uptimeMs())
}

// executeGuarded is execute behind a recover barrier: a panicking job —
// a poisoned config, a bug in a pipeline stage — lands in state failed
// with the panic value and stack in the job record, and the worker (and
// daemon) keep serving.
func (s *Server) executeGuarded(ctx context.Context, j *Job) (run *core.Run, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.tel.Counter("serve.jobs_panicked").Inc()
			run, err = nil, fmt.Errorf("serve: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if hook := s.opts.Hooks.BeforeJob; hook != nil {
		hook(j.ID, j.Spec)
	}
	return s.execute(ctx, j)
}

// execute runs the job's pipeline under its private telemetry handle.
func (s *Server) execute(ctx context.Context, j *Job) (*core.Run, error) {
	jt := telemetry.New(nil, s.opts.SpanCapacity)
	j.mu.Lock()
	j.tel = jt
	cfg := j.cfg
	j.mu.Unlock()

	if j.Spec.Kind == KindReanalyze {
		return s.reanalyze(ctx, j, jt)
	}

	cfg.Telemetry = jt
	cfg.OnProgress = j.setProgress
	if s.store != nil {
		// The job's run file is its walk log: the crawl appends to it,
		// a drained job leaves it unfinalized, and Store.Add lists it
		// once the run has finalized it.
		path := s.store.JobRunPath(j.ID)
		st, err := crumbcruncher.OpenWalkLog(path, cfg)
		if errors.Is(err, runstore.ErrCorrupt) {
			// The damaged store is quarantined; the job restarts from
			// an empty one rather than trusting corrupt walks.
			st, err = crumbcruncher.OpenWalkLog(path, cfg)
		}
		if err != nil {
			return nil, err
		}
		cfg.Store = st
		j.mu.Lock()
		j.runFile = path
		j.mu.Unlock()
	}
	closeStore := func() error {
		if cfg.Store == nil {
			return nil
		}
		return cfg.Store.Close()
	}
	world, hit, err := s.cache.Fork(j.configHash, cfg.World)
	if err != nil {
		closeStore() //nolint:errcheck // job is already failing
		return nil, err
	}
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()
	run, err := core.ExecuteInWorld(ctx, cfg, world)
	// A store that cannot sync its recorded walks is a durability
	// failure even when the run itself succeeded: surface it.
	if cerr := closeStore(); cerr != nil && err == nil {
		return nil, fmt.Errorf("serve: close run store: %w", cerr)
	}
	return run, err
}

// reanalyze re-runs the post-crawl pipeline over a stored run in one
// pass of parallel Gets (core.AnalyzeStore) — the decoded dataset is
// never resident all at once. The world is rebuilt (or fetched) through the
// same cache the crawl used, keyed by the stored run's own
// configuration hash.
func (s *Server) reanalyze(ctx context.Context, j *Job, jt *telemetry.Telemetry) (*core.Run, error) {
	if s.store == nil {
		return nil, errors.New("serve: reanalysis needs a run store (-store)")
	}
	entry, ok := s.store.Lookup(j.Spec.RunID)
	if !ok {
		return nil, fmt.Errorf("serve: unknown run %q", j.Spec.RunID)
	}
	st, err := crumbcruncher.OpenRunStore(s.store.RunPath(entry))
	if err != nil {
		return nil, err
	}
	var cfg core.Config
	if m := st.Manifest(); len(m.Config) > 0 {
		if err := json.Unmarshal(m.Config, &cfg); err != nil {
			st.Close() //nolint:errcheck // job is already failing
			return nil, fmt.Errorf("serve: stored config: %w", err)
		}
	}
	if j.Spec.Parallelism > 0 {
		cfg.Parallelism = j.Spec.Parallelism
	}
	cfg.Telemetry = jt
	hash := cfg.Hash()
	j.mu.Lock()
	j.cfg = cfg
	j.configHash = hash
	j.mu.Unlock()
	world, hit, err := s.cache.Fork(hash, cfg.World)
	if err != nil {
		st.Close() //nolint:errcheck // job is already failing
		return nil, err
	}
	j.mu.Lock()
	j.cacheHit = hit
	j.mu.Unlock()
	run, err := core.AnalyzeStore(ctx, cfg, world, st)
	// Closing releases the store's file handles; the run's lazy walk
	// replay (figures, referer scans) reads the store's in-memory or
	// sealed bytes, which outlive the handles.
	if cerr := st.Close(); cerr != nil && err == nil {
		return nil, fmt.Errorf("serve: close run store: %w", cerr)
	}
	return run, err
}

// --- HTTP API ---------------------------------------------------------------

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleJobList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	s.mux.HandleFunc("GET /jobs/{id}/metrics", s.handleJobMetrics)
	s.mux.HandleFunc("GET /jobs/{id}/report", s.handleJobReport)
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	s.mux.HandleFunc("GET /runs", s.handleRunList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRunFetch)
	s.mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) unavailable(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Retry-After", strconv.Itoa(s.opts.RetryAfterSeconds))
	writeError(w, code, msg)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if !s.bucket.Take() {
		s.tel.Counter("serve.admission_rejected").Inc()
		s.unavailable(w, http.StatusTooManyRequests, "admission rate exceeded")
		return
	}
	var spec JobSpec
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	cfg, err := spec.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if cfg.World.NumSites <= 0 {
		// BuildWorld substitutes the default world for a zero config;
		// make that substitution explicit here so the cache key, the
		// built world and the job's reported seed all agree.
		cfg.World = web.DefaultConfig()
	}
	if spec.Kind == KindReanalyze && s.store == nil {
		writeError(w, http.StatusBadRequest, "reanalysis needs a run store (-store)")
		return
	}

	s.mu.Lock()
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.mu.Unlock()
	j := newJob(id, spec, cfg, s.uptimeMs())

	if err := s.queue.Push(j, spec.Priority); err != nil {
		s.tel.Counter("serve.queue_rejected").Inc()
		s.unavailable(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.tel.Counter("serve.jobs_submitted").Inc()
	writeJSON(w, http.StatusAccepted, j.Status())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) *Job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job")
	}
	return j
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].Status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.job(w, r); j != nil {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleJobMetrics(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	body := j.Metrics()
	if body == nil {
		writeError(w, http.StatusConflict, "job is "+j.State()+", metrics need state done")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body) //nolint:errcheck
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	body := j.Report()
	if body == nil {
		writeError(w, http.StatusConflict, "job is "+j.State()+", report needs state done")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(body) //nolint:errcheck
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	tel := j.Telemetry()
	if tel == nil {
		writeError(w, http.StatusConflict, "job has not started")
		return
	}
	if r.URL.Query().Get("summary") != "" {
		writeJSON(w, http.StatusOK, telemetry.Summarize(tel.Tracer().Spans(), 10))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	tel.Tracer().WriteJSONL(w) //nolint:errcheck
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.job(w, r)
	if j == nil {
		return
	}
	j.markCanceled(false, s.uptimeMs())
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeJSON(w, http.StatusOK, []RunEntry{})
		return
	}
	writeJSON(w, http.StatusOK, s.store.List())
}

// RunFormat is the format GET /runs/{id} names in its header: a stored
// run's configuration, provenance and walks as one JSON document.
const RunFormat = "crumbcruncher/run"

// RunVersion is bumped when the RunFormat document layout changes.
const RunVersion = 1

func (s *Server) handleRunFetch(w http.ResponseWriter, r *http.Request) {
	if s.store == nil {
		writeError(w, http.StatusNotFound, "no run store configured")
		return
	}
	entry, ok := s.store.Lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run")
		return
	}
	// Stored runs are segment directories; clients get one
	// checksum-verified JSON document in the stable single-document
	// shape.
	st, err := crumbcruncher.OpenRunStore(s.store.RunPath(entry))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer st.Close() //nolint:errcheck // read-only handle
	m := st.Manifest()
	doc := struct {
		runstore.Header
		Config     json.RawMessage        `json:"config,omitempty"`
		Provenance json.RawMessage        `json:"provenance,omitempty"`
		Dataset    *crumbcruncher.Dataset `json:"dataset"`
	}{
		Header:     runstore.Header{Format: RunFormat, Version: RunVersion, Seed: m.Seed},
		Config:     m.Config,
		Provenance: m.Provenance,
		Dataset:    &crumbcruncher.Dataset{Seed: m.Seed, Crawlers: m.Crawlers},
	}
	cur := st.Iter()
	defer cur.Close() //nolint:errcheck // read-only cursor
	for {
		walk, err := cur.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		doc.Dataset.Walks = append(doc.Dataset.Walks, walk)
	}
	writeJSON(w, http.StatusOK, doc)
}

// debugVars is the GET /debug/vars payload: live queue/worker/job
// gauges, the server-level metrics registry, and per-job span
// summaries for every job that has run.
type debugVars struct {
	UptimeMs       int64                             `json:"uptime_ms"`
	Draining       bool                              `json:"draining"`
	Workers        int                               `json:"workers"`
	WorkersBusy    int64                             `json:"workers_busy"`
	QueueDepth     int                               `json:"queue_depth"`
	WorldCacheSize int                               `json:"world_cache_size"`
	Jobs           map[string]int                    `json:"jobs"`
	Metrics        telemetry.Snapshot                `json:"metrics"`
	JobSpans       map[string]telemetry.TraceSummary `json:"job_spans,omitempty"`
}

func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	v := debugVars{
		UptimeMs:       s.uptimeMs(),
		Draining:       s.draining.Load(),
		Workers:        s.opts.Workers,
		WorkersBusy:    s.busy.Load(),
		QueueDepth:     s.queue.Len(),
		WorldCacheSize: s.cache.Len(),
		Jobs:           make(map[string]int),
		Metrics:        s.tel.Registry().Snapshot(),
		JobSpans:       make(map[string]telemetry.TraceSummary),
	}
	for _, j := range s.snapshotJobs() {
		v.Jobs[j.State()]++
		if tel := j.Telemetry(); tel != nil {
			v.JobSpans[j.ID] = telemetry.Summarize(tel.Tracer().Spans(), 3)
		}
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.draining.Load(),
	})
}
