package stats

import (
	"math"
	"math/rand"
	"testing"
)

// pinSeeds are the seeds the source is pinned on: every branch of the
// seed reduction (sign, multiples of 2^31-1, the zero substitute) plus a
// few hundred derived seeds like the ones the crawl uses.
func pinSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max, -3 * int32max,
		int32max * int32max, int32max - 1, int32max + 1, -int32max + 1,
		89482311, -89482311, 1 << 40, -(1 << 62), math.MaxInt64, math.MinInt64,
	}
	for i := 0; i < 300; i++ {
		seeds = append(seeds, DeriveSeedN(int64(i), i*7919))
	}
	return seeds
}

// referenceRNG is an RNG over the stock math/rand source.
func referenceRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// draw runs op number i of a fixed mix that calls every RNG method and
// the other math/rand draws (Int63, Uint64, Perm, Shuffle, NormFloat64)
// the source serves, and returns what it drew as comparable values.
func draw(g *RNG, i int) []any {
	switch i % 11 {
	case 0:
		return []any{g.Intn(10), g.Intn(1 << 20), g.Intn(1<<40 + 3)}
	case 1:
		return []any{g.r.Int63()}
	case 2:
		return []any{g.r.Uint64()}
	case 3:
		return []any{g.Float64()}
	case 4:
		return []any{g.Bool(0.3), g.Bool(0), g.Bool(1)}
	case 5:
		p := g.r.Perm(i%9 + 1)
		out := make([]any, len(p))
		for j, v := range p {
			out[j] = v
		}
		return out
	case 6:
		xs := []int{0, 1, 2, 3, 4, 5, 6}
		g.r.Shuffle(len(xs), func(a, b int) { xs[a], xs[b] = xs[b], xs[a] })
		return []any{xs[0], xs[1], xs[2], xs[3], xs[4], xs[5], xs[6]}
	case 7:
		return []any{g.WeightedIndex([]float64{0.5, 0, 2, -1, 1.5})}
	case 8:
		return []any{g.Geometric(0.35, 12)}
	case 9:
		return []any{g.r.NormFloat64()}
	default:
		return []any{Pick(g, []string{"a", "b", "c", "d", "e"})}
	}
}

// sameDraws fails t unless got and want draw identical values over n
// ops.
func sameDraws(t *testing.T, label string, got, want *RNG, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := draw(got, i), draw(want, i)
		if len(g) != len(w) {
			t.Fatalf("%s op %d: drew %v, stock source drew %v", label, i, g, w)
		}
		for j := range g {
			if g[j] != w[j] {
				t.Fatalf("%s op %d: drew %v, stock source drew %v", label, i, g, w)
			}
		}
	}
}

// TestSourceMatchesStock pins the lazily seeded source to
// rand.NewSource: raw Int63/Uint64 streams long enough to wrap the
// register twice, and every RNG method through NewRNG and AcquireRNG.
func TestSourceMatchesStock(t *testing.T) {
	for _, seed := range pinSeeds() {
		var s source
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 3*rngLen; i++ {
			if i%2 == 0 {
				if got, want := s.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, stock %d", seed, i, got, want)
				}
			} else if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, stock %d", seed, i, got, want)
			}
		}
		// 1,300 mixed ops draw far more than 2×607 numbers.
		sameDraws(t, "NewRNG", NewRNG(seed), referenceRNG(seed), 1300)
		g := AcquireRNG(seed)
		sameDraws(t, "AcquireRNG", g, referenceRNG(seed), 1300)
		g.Release()
	}
}

// TestSourceReseedMidStream re-seeds a source after partial and full
// register fills: a re-seeded source must forget every word it computed
// or advanced.
func TestSourceReseedMidStream(t *testing.T) {
	seeds := pinSeeds()
	g := AcquireRNG(seeds[0])
	for i, seed := range seeds {
		// Draw part of the stream (some words filled, some not), or
		// enough to have filled and overwritten the whole register.
		for j := 0; j < (i%3)*500+i; j++ {
			g.r.Uint64()
		}
		g.r.Seed(seed)
		sameDraws(t, "reseeded", g, referenceRNG(seed), 200)
	}
	g.Release()

	// A released RNG's source goes back to the pool mid-stream; the next
	// acquire starts clean whichever source it gets.
	for _, seed := range seeds[:20] {
		g := AcquireRNG(seed ^ 0x5bd1e995)
		for j := 0; j < 321; j++ {
			g.r.Int63()
		}
		g.Release()
		g = AcquireRNG(seed)
		sameDraws(t, "re-acquired", g, referenceRNG(seed), 700)
		g.Release()
	}
}

// BenchmarkAcquireRNG measures the common crawl pattern: seed an RNG,
// draw three numbers, release it. "stock" re-seeds math/rand's own
// source the same way, for comparison.
func BenchmarkAcquireRNG(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := AcquireRNG(int64(i))
			g.Intn(10)
			g.Intn(100)
			g.Intn(1000)
			g.Release()
		}
	})
	b.Run("stock", func(b *testing.B) {
		r := rand.New(rand.NewSource(0))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			r.Intn(10)
			r.Intn(100)
			r.Intn(1000)
		}
	})
}
