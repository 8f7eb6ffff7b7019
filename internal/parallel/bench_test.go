package parallel

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// cheapItem is deliberately tiny: a few arithmetic ops, no allocation.
// At this item cost the pool's own per-item overhead (counter RMW,
// context poll, stopwatch reads) dominates — exactly the regime where
// the fine-grained post-crawl stages (per-path candidate scans) run.
func cheapItem(i int, sink *atomic.Int64) {
	v := int64(i)
	v ^= v << 13
	v ^= v >> 7
	sink.Add(v & 0xff)
}

// BenchmarkForEachCheap measures pool overhead on 100k near-free items,
// with no cancellable context and no timing hook.
func BenchmarkForEachCheap(b *testing.B) {
	const n = 100_000
	for _, par := range []int{1, 4} {
		b.Run(map[int]string{1: "parallelism-1", 4: "parallelism-4"}[par], func(b *testing.B) {
			var sink atomic.Int64
			b.ResetTimer()
			for range b.N {
				forEach(n, par, func(i int) { cheapItem(i, &sink) })
			}
		})
	}
}

// BenchmarkForEachTimedCtxCheap is the worst historical case: cheap
// items under both a cancellable context and a timing hook — the shape
// every instrumented pipeline stage runs when telemetry is enabled.
func BenchmarkForEachTimedCtxCheap(b *testing.B) {
	const n = 100_000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed atomic.Int64
	observe := func(d time.Duration) { observed.Add(int64(d)) }
	for _, par := range []int{1, 4} {
		b.Run(map[int]string{1: "parallelism-1", 4: "parallelism-4"}[par], func(b *testing.B) {
			var sink atomic.Int64
			b.ResetTimer()
			for range b.N {
				if err := ForEachTimedCtx(ctx, n, par, func(i int) { cheapItem(i, &sink) }, observe); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
