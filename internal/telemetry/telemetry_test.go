package telemetry

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// stepClock is a deterministic test clock advancing 1ms per reading.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Millisecond)
	return c.now
}

func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	tel.Counter("x").Add(3)
	tel.Gauge("g").Set(9)
	tel.Registry().Histogram("h").Observe(42)
	sp := tel.StartSpan("layer", "name")
	sp.Attr("k", "v").End()
	sp.EndErr(errors.New("boom"))
	if tel.Tracer().Total() != 0 || tel.Registry().Counter("x").Value() != 0 {
		t.Fatal("nil telemetry must observe nothing")
	}
	var tr *Tracer
	tr.Record(Span{})
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer spans = %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil tracer JSONL: %v %q", err, buf.String())
	}
	var reg *Registry
	if s := reg.Snapshot(); s.Counters != nil {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestSpansStampedFromClock(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)}
	tel := New(clock, 16)
	sp := tel.StartSpan("netsim", "roundtrip").Attr("host", "a.com")
	sp.End()
	spans := tel.Tracer().Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	s := spans[0]
	if s.Layer != "netsim" || s.Name != "roundtrip" || s.Attrs["host"] != "a.com" {
		t.Fatalf("span = %+v", s)
	}
	if !s.End.After(s.Start) || s.End.Sub(s.Start) != time.Millisecond {
		t.Fatalf("virtual times: start=%v end=%v", s.Start, s.End)
	}
}

func TestTracerRingOverflow(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Record(Span{Wall: int64(i)})
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d spans", len(spans))
	}
	for i, s := range spans {
		if s.Wall != int64(6+i) {
			t.Fatalf("span %d wall = %d, want %d (oldest-first order)", i, s.Wall, 6+i)
		}
	}
	if tr.Total() != 10 || tr.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d", tr.Total(), tr.Dropped())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 || h.Sum() != 1110 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	hs := snapshotHistogram(&h)
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != 7 {
		t.Fatalf("bucket counts sum to %d", total)
	}
	// 0 lands in the le=0 bucket; 2 and 3 share le=3; 100 lands in le=127.
	want := map[int64]int64{0: 1, 1: 1, 3: 2, 7: 1, 127: 1, 1023: 1}
	for _, b := range hs.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Inc()
				reg.Histogram("h").Observe(int64(i))
				reg.Gauge("g").Set(int64(i))
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Fatalf("counter = %d", got)
	}
	if got := reg.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["shared"] != 8000 || snap.Histograms["h"].Count != 8000 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestJSONLRoundTripAndSummary(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)}
	tel := New(clock, 64)
	tel.StartSpan("netsim", "roundtrip").End()
	tel.StartSpan("crawler", "walk").Attr("idx", "0").End()
	sp := tel.StartSpan("netsim", "roundtrip")
	sp.EndErr(errors.New("dial tcp: refused"))

	var buf bytes.Buffer
	if err := tel.Tracer().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 {
		t.Fatalf("JSONL lines = %d", got)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("decoded %d spans", len(spans))
	}

	sum := Summarize(spans, 2)
	if sum.Spans != 3 || len(sum.Slowest) != 2 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.LayerSpanCount("netsim") != 2 || sum.LayerSpanCount("crawler") != 1 {
		t.Fatalf("layer counts = %+v", sum.Layers)
	}
	if len(sum.Faults) != 1 || sum.Faults[0].Err != "dial tcp: refused" {
		t.Fatalf("faults = %+v", sum.Faults)
	}
	if !sum.VEnd.After(sum.VStart) {
		t.Fatalf("virtual window: %v..%v", sum.VStart, sum.VEnd)
	}
}

func TestProvenance(t *testing.T) {
	tel := New(&stepClock{now: time.Unix(100, 0)}, 8)
	tel.Counter("netsim.requests").Add(7)
	tel.StartSpan("analysis", "paths").End()

	type cfg struct{ Seed int64 }
	p := NewProvenance(11, cfg{Seed: 11}, tel)
	if p.Seed != 11 || p.GoVersion == "" || p.GitRevision == "" {
		t.Fatalf("provenance = %+v", p)
	}
	if p.ConfigHash != ConfigHash(cfg{Seed: 11}) {
		t.Fatal("config hash unstable")
	}
	if p.ConfigHash == ConfigHash(cfg{Seed: 12}) {
		t.Fatal("config hash insensitive to config")
	}
	if p.SpansRecorded != 1 || p.Metrics == nil || p.Metrics.Counters["netsim.requests"] != 7 {
		t.Fatalf("telemetry summary = %+v", p)
	}
	// Nil telemetry still yields the reproducibility fields.
	p2 := NewProvenance(11, cfg{Seed: 11}, nil)
	if p2.Metrics != nil || p2.ConfigHash != p.ConfigHash {
		t.Fatalf("nil-telemetry provenance = %+v", p2)
	}
}

func TestTracerConcurrentRecord(t *testing.T) {
	tel := New(&stepClock{}, 128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tel.StartSpan("layer", "op").End()
			}
		}(w)
	}
	wg.Wait()
	if tel.Tracer().Total() != 1600 {
		t.Fatalf("total = %d", tel.Tracer().Total())
	}
	if got := len(tel.Tracer().Spans()); got != 128 {
		t.Fatalf("retained = %d", got)
	}
}
