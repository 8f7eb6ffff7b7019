package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (the no-op instrument a nil registry hands
// out).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log2 buckets: bucket 0 holds values
// <= 0, bucket i holds values in [2^(i-1), 2^i - 1] for i >= 1, i.e.
// values whose bit length is i. 64-bit values need at most 65 buckets.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of int64 observations
// (durations in microseconds, chain lengths, token counts...). Each
// bucket is an independent atomic, so concurrent Observe calls never
// contend on a lock.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	idx := 0
	if v > 0 {
		idx = bits.Len64(uint64(v))
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Microseconds adapts the histogram into a duration hook recording in
// microseconds, or nil when the histogram is nil — shaped for
// parallel.ForEachTimedCtx, which skips timing entirely on a nil hook.
func (h *Histogram) Microseconds() func(d time.Duration) {
	if h == nil {
		return nil
	}
	return func(d time.Duration) { h.Observe(d.Microseconds()) }
}

// Mean returns the arithmetic mean of observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Registry is a concurrent-safe collection of named instruments.
// Instruments are created on first use and live for the registry's
// lifetime; callers should cache the returned pointer on hot paths to
// skip the map lookup. A nil *Registry hands out nil instruments, whose
// methods are all no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// BucketCount is one non-empty histogram bucket: Count observations
// with values <= Le (and greater than the previous bucket's Le).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     int64         `json:"sum"`
	Max     int64         `json:"max"`
	Mean    float64       `json:"mean"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument in a registry,
// with deterministic (sorted) map-free bucket ordering so it can be
// embedded in JSON artifacts.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current values. Safe on nil (returns
// a zero Snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = snapshotHistogram(h)
		}
	}
	return s
}

func snapshotHistogram(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.Max(), Mean: h.Mean()}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(0)
		if i > 0 {
			le = int64(1)<<uint(i) - 1
		}
		hs.Buckets = append(hs.Buckets, BucketCount{Le: le, Count: n})
	}
	sort.Slice(hs.Buckets, func(a, b int) bool { return hs.Buckets[a].Le < hs.Buckets[b].Le })
	return hs
}
