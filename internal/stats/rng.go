// Package stats provides the deterministic randomness and statistical
// machinery CrumbCruncher relies on: a splittable seeded RNG, weighted and
// Zipf samplers, proportions, and the two-proportion Z test used by the
// fingerprinting experiment (paper §3.5).
//
// Everything in this package is pure computation: given the same inputs it
// produces the same outputs, which is the foundation of CrumbCruncher's
// end-to-end reproducibility.
//
// The random streams are math/rand's, bit for bit, but drawn from this
// package's own source (source.go): re-seeding it is O(1), and it fills
// its 607-word register lazily as draws reach each word. Most RNGs here
// are seeded per page or per decision and draw only a few numbers, so
// seeding has to cost less than drawing.
package stats

import (
	"math/rand"
	"sync"
)

// splitmix64 advances a SplitMix64 state and returns the next output.
// SplitMix64 is used only for deriving independent sub-seeds; the actual
// random streams come from math/rand's lagged-Fibonacci generator
// (source) seeded from it.
func splitmix64(state uint64) (next uint64, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

// rngPool recycles rand.Rand instances. Each owns a 607-word (~4.9KB)
// lagged-Fibonacci register, and CrumbCruncher creates RNGs by the
// hundred-thousand (two per page render), so reusing the register still
// pays. Re-seeding a pooled source is O(1): it resets the source to its
// seed and marks every register word unfilled, and each word is
// recomputed from the seed on its first read. A pooled RNG's stream is
// therefore byte-identical to a fresh NewRNG's: pooling changes
// allocation counts, never output.
var rngPool = sync.Pool{
	New: func() any { return rand.New(&source{}) },
}

// DeriveSeed deterministically mixes a parent seed with a label so that
// independent subsystems (world generation, ad rotation, fault injection,
// per-crawler fallback choices) get decorrelated streams. The label keeps
// derivations stable across code reorderings: adding a new consumer never
// perturbs existing streams.
func DeriveSeed(parent int64, label string) int64 {
	state := uint64(parent) ^ 0x6a09e667f3bcc908
	var out uint64
	for i := 0; i < len(label); i++ {
		state ^= uint64(label[i]) << (uint(i%8) * 8)
		state, out = splitmix64(state)
	}
	state, out = splitmix64(state)
	_ = state
	return int64(out)
}

// DeriveSeedN deterministically mixes a parent seed with an integer
// label. It is the allocation-free sibling of DeriveSeed for indexed
// derivations (per-site, per-walk): DeriveSeedN(s, i) is stable across
// releases and decorrelated from DeriveSeed streams.
func DeriveSeedN(parent int64, n int) int64 {
	state := uint64(parent) ^ 0x6a09e667f3bcc908
	state ^= uint64(n) * 0xbf58476d1ce4e5b9
	var out uint64
	state, out = splitmix64(state)
	state, out = splitmix64(state)
	_ = state
	return int64(out)
}

// UnitAt returns a deterministic uniform float64 in [0, 1) for the pair
// (seed, i) without constructing an RNG. It is used for cheap per-index
// classification decisions (e.g. a lazy world's site kinds) where paying
// for a full random stream per index would dominate generation.
func UnitAt(seed int64, i int) float64 {
	_, out := splitmix64(uint64(DeriveSeedN(seed, i)))
	return float64(out>>11) / (1 << 53)
}

// RNG is a deterministic random source. It wraps math/rand with a
// convenience layer (splitting, weighted choice) and is NOT safe for
// concurrent use; split one child per goroutine instead.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns an RNG seeded with seed. Its stream is identical to
// rand.New(rand.NewSource(seed))'s.
func NewRNG(seed int64) *RNG {
	src := &source{}
	src.Seed(seed)
	return &RNG{r: rand.New(src)}
}

// AcquireRNG returns an RNG re-seeded from the pool, stream-identical to
// NewRNG(seed). Callers that can bound the RNG's lifetime should pair it
// with Release on every path; callers that can't should use NewRNG.
func AcquireRNG(seed int64) *RNG {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return &RNG{r: r}
}

// Release returns the RNG's source to the pool. The RNG must not be used
// afterwards (any use panics). Safe to call on a NewRNG-built RNG too —
// its source simply joins the pool.
func (g *RNG) Release() {
	if g.r != nil {
		rngPool.Put(g.r)
		g.r = nil
	}
}

// Splitter derives independent RNGs from a root seed by label.
type Splitter struct {
	seed int64
}

// NewSplitter returns a Splitter rooted at seed.
func NewSplitter(seed int64) *Splitter { return &Splitter{seed: seed} }

// Seed returns the deterministic sub-seed for label.
func (s *Splitter) Seed(label string) int64 { return DeriveSeed(s.seed, label) }

// RNG returns a fresh RNG for label.
func (s *Splitter) RNG(label string) *RNG { return NewRNG(s.Seed(label)) }

// Child returns a Splitter namespaced under label, for hierarchical
// derivation (e.g. "walk/17/step/3").
func (s *Splitter) Child(label string) *Splitter {
	return &Splitter{seed: s.Seed(label)}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Bool returns true with probability p.
func (g *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return g.r.Float64() < p
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](g *RNG, xs []T) T {
	return xs[g.Intn(len(xs))]
}

// WeightedIndex returns an index into weights chosen with probability
// proportional to the weight. Zero or negative weights are never chosen.
// It panics if no weight is positive.
func (g *RNG) WeightedIndex(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("stats: WeightedIndex requires a positive weight")
	}
	x := g.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	panic("unreachable")
}

// Geometric samples a geometric count with success probability p: the
// number of failures before the first success, capped at max. It is used
// for redirect-chain lengths.
func (g *RNG) Geometric(p float64, max int) int {
	if p <= 0 {
		return max
	}
	if p >= 1 {
		return 0
	}
	n := 0
	for n < max && g.Float64() >= p {
		n++
	}
	return n
}
