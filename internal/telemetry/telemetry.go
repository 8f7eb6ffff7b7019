// Package telemetry is the pipeline's observability subsystem: tracing
// spans with wall-time durations, a registry of named
// counters, gauges and log-bucketed histograms, and run provenance blocks
// that make archived crawls self-describing.
//
// The package is dependency-free (standard library only) and designed
// around two constraints the pipeline imposes:
//
//   - Observation only. Telemetry must never perturb a run: it reads the
//     virtual clock but never advances it, touches no RNG, and every
//     value lives in its own atomic or behind its own short-lived lock.
//     Enabling telemetry leaves run results byte-identical (the
//     determinism test at the repo root enforces this).
//
//   - Nil-safe no-op default. Every method works on a nil receiver, so
//     uninstrumented callers thread a nil *Telemetry through the stack
//     and pay nothing — no allocation, no branching beyond one nil
//     check, no lock.
//
// Span timestamps come from the Clock passed to New, if any. A pipeline
// run has no run-wide clock to pass — each walk keeps its own virtual
// time — so its spans carry zero virtual timestamps. Each span carries a
// wall-clock duration, which is where the cost of every stage shows.
package telemetry

import (
	"sync"
	"time"
)

// Clock supplies span timestamps. netsim's VirtualClock satisfies it.
type Clock interface {
	Now() time.Time
}

// DefaultSpanCapacity is the tracer ring size used by New.
const DefaultSpanCapacity = 1 << 16

// Telemetry bundles a tracer and a metrics registry behind one handle.
// A nil *Telemetry is the no-op implementation; all methods are safe on
// nil.
type Telemetry struct {
	tracer *Tracer
	reg    *Registry
	clock  Clock // nil: spans carry zero virtual timestamps
}

// New returns a Telemetry with a tracer of the given span capacity
// (<= 0: DefaultSpanCapacity) and a fresh registry. Spans are stamped
// from clock; a nil clock leaves them at zero virtual time.
func New(clock Clock, spanCapacity int) *Telemetry {
	if spanCapacity <= 0 {
		spanCapacity = DefaultSpanCapacity
	}
	return &Telemetry{tracer: NewTracer(spanCapacity), reg: NewRegistry(), clock: clock}
}

// now returns the current virtual time, or the zero time with no clock.
func (t *Telemetry) now() time.Time {
	if t == nil || t.clock == nil {
		return time.Time{}
	}
	return t.clock.Now()
}

// Tracer returns the span collector (nil for a nil Telemetry).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// Registry returns the metrics registry (nil for a nil Telemetry).
func (t *Telemetry) Registry() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Counter is shorthand for Registry().Counter(name); nil-safe.
func (t *Telemetry) Counter(name string) *Counter { return t.Registry().Counter(name) }

// Gauge is shorthand for Registry().Gauge(name); nil-safe.
func (t *Telemetry) Gauge(name string) *Gauge { return t.Registry().Gauge(name) }

// Span is one completed trace record. Start and End are virtual-clock
// timestamps (deterministic per seed); Wall is the real elapsed time
// (diagnostic only, excluded from any determinism guarantee).
type Span struct {
	Layer string            `json:"layer"`
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	End   time.Time         `json:"end"`
	Wall  int64             `json:"wall_ns"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Err   string            `json:"err,omitempty"`
}

// Stopwatch measures real elapsed time for telemetry enrichment. It is
// the pipeline's only sanctioned wall-clock observation point: results
// must be a pure function of the seed, but traces and shard-timing
// histograms legitimately record how long real work took. Everything
// in the pipeline that wants wall time goes through here, so there is
// one origin to audit; a wall-clock read that reached results would
// fail the determinism pins (TestPageBytesPinned, TestWalkRecordsPinned).
type Stopwatch struct {
	start time.Time
}

// StartStopwatch begins measuring wall time.
func StartStopwatch() Stopwatch {
	return Stopwatch{start: time.Now()}
}

// Elapsed returns the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}

// ElapsedMicros returns the elapsed wall time in microseconds, the unit
// the shard-timing histograms observe.
func (s Stopwatch) ElapsedMicros() int64 {
	return s.Elapsed().Microseconds()
}

// Active is an in-flight span handle returned by StartSpan. A nil
// *Active is a valid no-op; all methods are safe on nil.
type Active struct {
	t         *Telemetry
	span      Span
	wallStart Stopwatch
}

// StartSpan opens a span in the given layer. End (or EndErr) completes
// it and hands it to the tracer. On a nil Telemetry it returns nil,
// which every Active method accepts.
func (t *Telemetry) StartSpan(layer, name string) *Active {
	if t == nil {
		return nil
	}
	return &Active{
		t:         t,
		span:      Span{Layer: layer, Name: name, Start: t.now()},
		wallStart: StartStopwatch(),
	}
}

// Attr attaches a key/value attribute and returns the handle for
// chaining.
func (a *Active) Attr(key, value string) *Active {
	if a == nil {
		return nil
	}
	if a.span.Attrs == nil {
		a.span.Attrs = make(map[string]string, 4)
	}
	a.span.Attrs[key] = value
	return a
}

// End completes the span and records it.
func (a *Active) End() { a.EndErr(nil) }

// EndErr completes the span, tagging it with err when non-nil.
func (a *Active) EndErr(err error) {
	if a == nil {
		return
	}
	a.span.End = a.t.now()
	a.span.Wall = a.wallStart.Elapsed().Nanoseconds()
	if err != nil {
		a.span.Err = err.Error()
	}
	a.t.tracer.Record(a.span)
}

// Tracer collects completed spans in a fixed-capacity ring buffer: a
// single short mutex-guarded copy per span, no allocation on the record
// path, and the most recent capacity spans retained when a run overflows
// it.
type Tracer struct {
	mu      sync.Mutex
	buf     []Span
	next    int
	wrapped bool
	total   int64
}

// NewTracer returns a tracer retaining the last capacity spans
// (minimum 1).
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Span, capacity)}
}

// Record appends a span, overwriting the oldest when full. Safe for
// concurrent use and on a nil tracer.
func (tr *Tracer) Record(s Span) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.buf[tr.next] = s
	tr.next++
	if tr.next == len(tr.buf) {
		tr.next = 0
		tr.wrapped = true
	}
	tr.total++
	tr.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (tr *Tracer) Spans() []Span {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.wrapped {
		out := make([]Span, tr.next)
		copy(out, tr.buf[:tr.next])
		return out
	}
	out := make([]Span, 0, len(tr.buf))
	out = append(out, tr.buf[tr.next:]...)
	out = append(out, tr.buf[:tr.next]...)
	return out
}

// Total returns how many spans were ever recorded (including ones the
// ring has since overwritten).
func (tr *Tracer) Total() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.total
}

// Dropped returns how many recorded spans are no longer retained.
func (tr *Tracer) Dropped() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.wrapped {
		return 0
	}
	return tr.total - int64(len(tr.buf))
}
