// Package stats is a fixture stand-in for the pooled-RNG helpers:
// AcquireRNG hands out pooled values, Release returns them, Recycle
// releases on the caller's behalf (exporting Releases={0}).
package stats

import "sync"

var rngPool = sync.Pool{New: func() any { return new(RNG) }}

// RNG is a pooled deterministic generator.
type RNG struct{ seed uint64 }

// AcquireRNG takes an RNG from the pool.
func AcquireRNG(seed uint64) *RNG {
	r := rngPool.Get().(*RNG)
	r.seed = seed
	return r
}

// Release returns the RNG to its pool. Exports ReleasesRecv.
func (r *RNG) Release() { rngPool.Put(r) }

// Next borrows the RNG.
func (r *RNG) Next() uint64 {
	r.seed = r.seed*6364136223846793005 + 1442695040888963407
	return r.seed
}

// Recycle releases the RNG on behalf of the caller.
func Recycle(r *RNG) { r.Release() }
