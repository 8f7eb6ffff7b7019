// Package parallel provides the bounded worker pool the post-crawl
// pipeline stages share. The contract every caller follows: workers write
// results into pre-sized, index-addressed slots (never append to shared
// state), and the caller reduces those slots in index order afterwards —
// so the merged output is bit-identical to a sequential pass regardless
// of GOMAXPROCS or scheduling.
package parallel

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"crumbcruncher/internal/telemetry"
)

// Workers clamps a parallelism knob to [1, n] for n work items. Zero and
// negative values mean "sequential".
func Workers(p, n int) int {
	if p < 1 {
		return 1
	}
	if n >= 1 && p > n {
		return n
	}
	return p
}

// blockFor returns the handout granularity: workers claim contiguous
// blocks of this many items per shared-counter fetch. Aiming for ~16
// blocks per worker keeps skewed item costs balanced while cutting the
// per-item costs that made fine-grained stages slower in parallel than
// sequential — one atomic RMW, one context-error check and (when timed)
// two clock reads per *item* became the dominant cost once items were
// cheap (e.g. per-path candidate scans).
func blockFor(n, p int) int {
	b := n / (p * 16)
	if b < 1 {
		return 1
	}
	if b > 1024 {
		return 1024
	}
	return b
}

// ForEachTimedCtx invokes fn(i) for every i in [0, n) using at most p
// concurrent workers. Items are handed out in index order, in
// contiguous blocks, from a shared counter, so the pool stays busy even
// when item costs are skewed. With p <= 1 it degenerates to a plain
// loop on the calling goroutine.
//
// observe, when non-nil, is called once per completed handout block
// (the unit a worker claims — a shard) with its wall duration, possibly
// concurrently from several workers (telemetry histograms are atomic,
// so they are valid sinks). Per-block rather than per-item timing keeps
// the two clock reads off the hot path when items are cheap; a nil
// observe costs nothing.
//
// A cancellable ctx is polled once per block, never per item: once it
// is cancelled the pool stops handing out new blocks (in-flight blocks
// finish) and ctx's error is returned. A context that can never be
// cancelled adds no per-item cost. Callers must treat any non-nil error
// as "slots are partially filled" and abandon the reduce.
func ForEachTimedCtx(ctx context.Context, n, p int, fn func(i int), observe func(d time.Duration)) error {
	cancellable := ctx.Done() != nil
	ctxErr := func() error {
		if cancellable {
			return ctx.Err()
		}
		return nil
	}
	if n <= 0 {
		return ctxErr()
	}
	p = Workers(p, n)
	block := blockFor(n, p)
	runBlock := func(lo, hi int) {
		if observe == nil {
			for i := lo; i < hi; i++ {
				fn(i)
			}
			return
		}
		sw := telemetry.StartStopwatch()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		observe(sw.Elapsed())
	}

	if p == 1 {
		for lo := 0; lo < n; lo += block {
			if err := ctxErr(); err != nil {
				return err
			}
			hi := lo + block
			if hi > n {
				hi = n
			}
			runBlock(lo, hi)
		}
		return ctxErr()
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func() {
			defer wg.Done()
			for ctxErr() == nil {
				hi := int(next.Add(int64(block)))
				lo := hi - block
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				runBlock(lo, hi)
			}
		}()
	}
	wg.Wait()
	return ctxErr()
}

// Chunk is a half-open index range [Lo, Hi) of the input slice.
type Chunk struct {
	Lo, Hi int
}

// Chunks splits n items into at most p contiguous ranges of near-equal
// size, in index order. Map-side aggregation runs one worker per chunk;
// the reduce walks the chunks in this order, which keeps first-occurrence
// semantics (e.g. a representative path per unique key) identical to a
// sequential pass.
func Chunks(n, p int) []Chunk {
	p = Workers(p, n)
	if n <= 0 {
		return nil
	}
	out := make([]Chunk, 0, p)
	size := n / p
	rem := n % p
	lo := 0
	for i := 0; i < p; i++ {
		hi := lo + size
		if i < rem {
			hi++
		}
		if hi > lo {
			out = append(out, Chunk{Lo: lo, Hi: hi})
		}
		lo = hi
	}
	return out
}
