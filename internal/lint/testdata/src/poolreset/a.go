// Fixture for the poolreset analyzer: Get/Put pairing on all paths,
// pooled fields nilled after Put, and fact-driven release through
// cross-package helpers.
package poolreset

import (
	"sync"

	"poolreset/internal/stats"
)

type buffer struct{ data []byte }

var bufPool = sync.Pool{New: func() any { return new(buffer) }}

// Straight-line: taken from the pool, never returned.
func straightLeak() {
	b := bufPool.Get().(*buffer) // want `pooled value b is never returned to the pool`
	b.data = b.data[:0]
}

func straightOK() {
	b := bufPool.Get().(*buffer)
	b.data = b.data[:0]
	bufPool.Put(b)
}

// Branch: one early return skips the Put.
func branchLeak(n int) {
	b := bufPool.Get().(*buffer)
	if n > 0 {
		return // want `pooled value b from the Get at a\.go:[0-9]+ is not returned to the pool on this return path`
	}
	bufPool.Put(b)
}

// The deferred-closure Put covers every path.
func deferOK() {
	b := bufPool.Get().(*buffer)
	defer func() { bufPool.Put(b) }()
	b.data = append(b.data, 0)
}

type holder struct{ buf *buffer }

// A pooled value parked in a field must be nilled after Put, or the
// released value stays reachable.
func fieldPutNoNil(h *holder) {
	bufPool.Put(h.buf) // want `pooled field h.buf is not set to nil after Put`
}

func fieldPutOK(h *holder) {
	bufPool.Put(h.buf)
	h.buf = nil
}

// Cross-package: AcquireRNG is a pool-backed acquire helper; without a
// Release the value never returns.
func rngLeak(seed uint64) {
	r := stats.AcquireRNG(seed) // want `pooled value r is never returned to the pool`
	_ = r.Next()
}

// Release on every path via defer.
func rngReleaseOK(seed uint64) uint64 {
	r := stats.AcquireRNG(seed)
	defer r.Release()
	return r.Next()
}

// Cross-package, fact-driven: Recycle's fact says it releases its
// argument, so handing the RNG over discharges the obligation.
func rngRecycleOK(seed uint64) uint64 {
	r := stats.AcquireRNG(seed)
	n := r.Next()
	stats.Recycle(r)
	return n
}

// The DESIGN.md §9 mutation rows no test catches, as fixture cases.

var candPool = sync.Pool{New: func() any { return map[string]int{} }}

// tokens.FindCandidates' deferred closure clearing its pooled map but
// no longer putting it back.
func findCandidates(keys []string) int {
	found := candPool.Get().(map[string]int)
	defer func() {
		clear(found)
	}()
	for _, k := range keys {
		found[k]++
	}
	return len(found) // want `pooled value found from the Get at a\.go:[0-9]+ is not returned to the pool on this return path`
}

// stats.RNG.Release putting its source back without dropping it.
type rng struct{ src *buffer }

func (g *rng) release() {
	if g.src != nil {
		bufPool.Put(g.src) // want `pooled field g.src is not set to nil after Put`
	}
}
