package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"crumbcruncher/internal/core"
	"crumbcruncher/internal/telemetry"
)

// Job states. A job moves queued → running → one terminal state.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateCanceled    = "canceled"    // DELETE /jobs/{id}, or dropped from the queue on drain
	StateInterrupted = "interrupted" // in-flight during drain; its run store is left resumable
)

// JobSpec is the POST /jobs request body. The zero value submits a
// default-configuration crawl at priority 0; Config overrides the whole
// configuration when the shorthand knobs are not enough.
type JobSpec struct {
	// Kind selects the work: "crawl" (default) runs the full pipeline;
	// "reanalyze" re-runs the post-crawl analysis over a stored run.
	Kind string `json:"kind,omitempty"`
	// Priority orders the queue: higher pops first, FIFO within a band.
	Priority int `json:"priority,omitempty"`
	// Small starts from core.SmallConfig instead of core.DefaultConfig.
	Small bool `json:"small,omitempty"`
	// Seed overrides the world seed when non-zero.
	Seed int64 `json:"seed,omitempty"`
	// Walks overrides the walk count when positive.
	Walks int `json:"walks,omitempty"`
	// Parallelism overrides pipeline concurrency when positive. It is a
	// scheduling knob: results are byte-identical at any value.
	Parallelism int `json:"parallelism,omitempty"`
	// Config, when set, replaces the base configuration entirely; the
	// shorthand knobs above still apply on top of it.
	Config *core.Config `json:"config,omitempty"`
	// RunID names the stored run a "reanalyze" job reads.
	RunID string `json:"run_id,omitempty"`
	// TimeoutMs, when > 0, bounds the job's execution: a job still
	// running after this many milliseconds fails with a timeout cause
	// (its run store keeps the walks completed before the deadline).
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// resolve expands the spec into the effective run configuration.
func (spec JobSpec) resolve() (core.Config, error) {
	switch spec.Kind {
	case "", KindCrawl, KindReanalyze:
	default:
		return core.Config{}, fmt.Errorf("unknown job kind %q", spec.Kind)
	}
	if spec.Kind == KindReanalyze && spec.RunID == "" {
		return core.Config{}, errors.New(`"reanalyze" jobs need run_id`)
	}
	var cfg core.Config
	switch {
	case spec.Config != nil:
		cfg = *spec.Config
	case spec.Small:
		cfg = core.SmallConfig()
	default:
		cfg = core.DefaultConfig()
	}
	if spec.Seed != 0 {
		cfg.World.Seed = spec.Seed
	}
	if spec.Walks > 0 {
		cfg.Walks = spec.Walks
	}
	if spec.Parallelism > 0 {
		cfg.Parallelism = spec.Parallelism
	}
	return cfg, nil
}

// Job kinds.
const (
	KindCrawl     = "crawl"
	KindReanalyze = "reanalyze"
)

// Job is one submitted unit of work and its full lifecycle. All mutable
// fields are guarded by mu; the HTTP layer reads through Status and the
// result accessors.
type Job struct {
	ID   string
	Spec JobSpec

	mu            sync.Mutex
	state         string
	cfg           core.Config
	configHash    string
	cacheHit      bool
	progress      core.Progress
	cancel        context.CancelFunc
	errText       string
	metrics       []byte
	report        []byte
	tel           *telemetry.Telemetry
	runID         string // run-store entry, once persisted
	runFile       string // run store path, when the server has a store
	enqueuedMs    int64
	startedMs     int64
	finishedMs    int64
	done          chan struct{}
	drainedInRun  bool // the server drained while this job was running
	canceledEarly bool // DELETE arrived while still queued
}

func newJob(id string, spec JobSpec, cfg core.Config, nowMs int64) *Job {
	j := &Job{
		ID:         id,
		Spec:       spec,
		state:      StateQueued,
		cfg:        cfg,
		enqueuedMs: nowMs,
		done:       make(chan struct{}),
	}
	if spec.Kind == "" {
		j.Spec.Kind = KindCrawl
	}
	if j.Spec.Kind == KindCrawl {
		j.configHash = cfg.Hash()
	}
	return j
}

// begin transitions queued → running, wiring the cancel func. It
// reports false when the job was canceled while still queued (the
// worker must skip it).
func (j *Job) begin(cancel context.CancelFunc, nowMs int64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.canceledEarly {
		return false
	}
	j.state = StateRunning
	j.cancel = cancel
	j.startedMs = nowMs
	return true
}

// finish records the terminal state and closes the done channel.
func (j *Job) finish(state, errText string, nowMs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	j.errText = errText
	j.finishedMs = nowMs
	j.cancel = nil
	close(j.done)
}

// markCanceled handles DELETE and queue drain. For a queued job it is
// terminal immediately; for a running job it cancels the context and
// lets the worker record the terminal state once the pipeline drains.
func (j *Job) markCanceled(drain bool, nowMs int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.canceledEarly = true
		j.state = StateCanceled
		j.finishedMs = nowMs
		close(j.done)
	case StateRunning:
		j.drainedInRun = drain
		if j.cancel != nil {
			j.cancel()
		}
	}
}

func (j *Job) setProgress(p core.Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

func (j *Job) setResults(metrics, report []byte, runID string) {
	j.mu.Lock()
	j.metrics = metrics
	j.report = report
	j.runID = runID
	j.mu.Unlock()
}

// Status is the JSON view of a job served by GET /jobs and
// GET /jobs/{id}. Timing fields are milliseconds since server start,
// measured on the server's telemetry stopwatch.
type Status struct {
	ID            string        `json:"id"`
	Kind          string        `json:"kind"`
	State         string        `json:"state"`
	Priority      int           `json:"priority"`
	Seed          int64         `json:"seed"`
	ConfigHash    string        `json:"config_hash,omitempty"`
	WorldCacheHit bool          `json:"world_cache_hit,omitempty"`
	Progress      core.Progress `json:"progress"`
	Error         string        `json:"error,omitempty"`
	RunID         string        `json:"run_id,omitempty"`
	RunFile       string        `json:"run_file,omitempty"`
	EnqueuedMs    int64         `json:"enqueued_ms"`
	StartedMs     int64         `json:"started_ms,omitempty"`
	FinishedMs    int64         `json:"finished_ms,omitempty"`
}

// Status snapshots the job for the HTTP layer.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:            j.ID,
		Kind:          j.Spec.Kind,
		State:         j.state,
		Priority:      j.Spec.Priority,
		Seed:          j.cfg.World.Seed,
		ConfigHash:    j.configHash,
		WorldCacheHit: j.cacheHit,
		Progress:      j.progress,
		Error:         j.errText,
		RunID:         j.runID,
		RunFile:       j.runFile,
		EnqueuedMs:    j.enqueuedMs,
		StartedMs:     j.startedMs,
		FinishedMs:    j.finishedMs,
	}
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Metrics returns the metrics JSON of a finished job (nil before done).
func (j *Job) Metrics() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.metrics
}

// Report returns the rendered report of a finished job (nil before done).
func (j *Job) Report() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// Telemetry returns the job's telemetry handle (nil until it runs).
func (j *Job) Telemetry() *telemetry.Telemetry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tel
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }
