package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(42, "world")
	b := DeriveSeed(42, "world")
	if a != b {
		t.Fatalf("DeriveSeed not deterministic: %d != %d", a, b)
	}
}

func TestDeriveSeedLabelSeparation(t *testing.T) {
	labels := []string{"world", "walk/0", "walk/1", "faults", "ads", ""}
	seen := make(map[int64]string)
	for _, l := range labels {
		s := DeriveSeed(7, l)
		if prev, ok := seen[s]; ok {
			t.Fatalf("labels %q and %q collide on seed %d", prev, l, s)
		}
		seen[s] = l
	}
}

func TestDeriveSeedParentSeparation(t *testing.T) {
	if DeriveSeed(1, "x") == DeriveSeed(2, "x") {
		t.Fatal("different parents produced same derived seed")
	}
}

func TestSplitterHierarchy(t *testing.T) {
	s := NewSplitter(99)
	c1 := s.Child("walks").Seed("0")
	c2 := s.Child("walks").Seed("0")
	if c1 != c2 {
		t.Fatal("Child derivation not deterministic")
	}
	if s.Child("walks").Seed("0") == s.Child("faults").Seed("0") {
		t.Fatal("sibling children collide")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(5), NewRNG(5)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatalf("stream diverged at draw %d", i)
		}
	}
}

func TestBoolEdges(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 50; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := NewRNG(2)
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if p < 0.27 || p > 0.33 {
		t.Fatalf("Bool(0.3) frequency = %.3f, want ~0.3", p)
	}
}

func TestWeightedIndex(t *testing.T) {
	g := NewRNG(3)
	weights := []float64{0, 1, 3, 0}
	counts := make([]int, len(weights))
	for i := 0; i < 40000; i++ {
		counts[g.WeightedIndex(weights)]++
	}
	if counts[0] != 0 || counts[3] != 0 {
		t.Fatalf("zero-weight index chosen: %v", counts)
	}
	ratio := float64(counts[2]) / float64(counts[1])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio = %.2f, want ~3", ratio)
	}
}

func TestWeightedIndexPanicsWithoutPositiveWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).WeightedIndex([]float64{0, -1})
}

func TestGeometric(t *testing.T) {
	g := NewRNG(4)
	const trials = 30000
	var sum int
	for i := 0; i < trials; i++ {
		n := g.Geometric(0.5, 100)
		if n < 0 || n > 100 {
			t.Fatalf("Geometric out of range: %d", n)
		}
		sum += n
	}
	mean := float64(sum) / trials
	// Mean of geometric (failures before success) with p=0.5 is 1.
	if mean < 0.9 || mean > 1.1 {
		t.Fatalf("Geometric mean = %.3f, want ~1", mean)
	}
	if g.Geometric(0, 7) != 7 {
		t.Fatal("Geometric(0, max) should return max")
	}
	if g.Geometric(1, 7) != 0 {
		t.Fatal("Geometric(1, max) should return 0")
	}
}

// TestZipfRank checks the sampler the world generator draws partner
// links with: ranks stay in [1, n] over the whole unit interval, never
// fall as u grows, collapse to 1 for n <= 1, and at the generator's skew
// favour the head over the tail.
func TestZipfRank(t *testing.T) {
	const n = 100
	const skew = 0.35 // the generator's partner-link skew
	below1 := math.Nextafter(1, 0)
	for _, u := range []float64{0, below1} {
		if r := ZipfRank(n, skew, u); r < 1 || r > n {
			t.Fatalf("ZipfRank(%d, %g, %g) = %d, want in [1, %d]", n, skew, u, r, n)
		}
	}
	if r := ZipfRank(n, skew, 0); r != 1 {
		t.Fatalf("ZipfRank at u = 0 is %d, want 1", r)
	}
	prev := 1
	for i := 0; i <= 10000; i++ {
		u := min(float64(i)/10000, below1)
		r := ZipfRank(n, skew, u)
		if r < prev {
			t.Fatalf("rank fell from %d to %d at u = %g", prev, r, u)
		}
		prev = r
	}
	for _, small := range []int{1, 0, -3} {
		if r := ZipfRank(small, skew, 0.5); r != 1 {
			t.Fatalf("ZipfRank(%d, ...) = %d, want 1", small, r)
		}
	}
	g := NewRNG(8)
	counts := make([]int, n+1)
	for i := 0; i < 50000; i++ {
		counts[ZipfRank(n, skew, g.Float64())]++
	}
	// Truncating the continuous inverse reaches rank n only as u -> 1,
	// so the tail is checked at rank n-1 too.
	if counts[1] <= counts[n-1] || counts[1] <= counts[n] {
		t.Fatalf("rank 1 drawn %d times, rank %d %d times, rank %d %d times: want the head ahead",
			counts[1], n-1, counts[n-1], n, counts[n])
	}
}

func TestTwoProportionZTestKnownValue(t *testing.T) {
	// 52/100 vs 44/100: z should be ~1.13, not significant at 0.05.
	res, err := TwoProportionZTest(
		Proportion{Successes: 52, Trials: 100},
		Proportion{Successes: 44, Trials: 100},
	)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Z-1.1314) > 0.01 {
		t.Fatalf("Z = %.4f, want ~1.1314", res.Z)
	}
	if res.PValue < 0.05 {
		t.Fatalf("p = %g: should not be significant at 0.05", res.PValue)
	}
	if res.Diff <= 0 {
		t.Fatalf("Diff = %g, want > 0", res.Diff)
	}
}

func TestTwoProportionZTestSignificant(t *testing.T) {
	res, err := TwoProportionZTest(
		Proportion{Successes: 700, Trials: 1000},
		Proportion{Successes: 500, Trials: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.PValue >= 0.001 {
		t.Fatalf("70%% vs 50%% with n=1000 must be significant; p=%g", res.PValue)
	}
}

func TestTwoProportionZTestDegenerate(t *testing.T) {
	if _, err := TwoProportionZTest(Proportion{}, Proportion{Successes: 1, Trials: 2}); err == nil {
		t.Fatal("expected error for empty group")
	}
	if _, err := TwoProportionZTest(
		Proportion{Successes: 5, Trials: 5},
		Proportion{Successes: 3, Trials: 3},
	); err == nil {
		t.Fatal("expected error for pooled p = 1")
	}
}

func TestStdNormalCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1.96, 0.975},
		{-1.96, 0.025},
		{3, 0.99865},
	}
	for _, c := range cases {
		got := StdNormalCDF(c.x)
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("StdNormalCDF(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestCounterTopOrdering(t *testing.T) {
	c := NewCounter()
	for i := 0; i < 3; i++ {
		c.Inc("b")
		c.Inc("a")
	}
	c.Inc("z")
	top := c.Top(0)
	if len(top) != 3 {
		t.Fatalf("len = %d", len(top))
	}
	if top[0].Key != "a" || top[1].Key != "b" || top[2].Key != "z" {
		t.Fatalf("tie-break ordering wrong: %v", top)
	}
	if got := c.Top(1); len(got) != 1 || got[0].Key != "a" {
		t.Fatalf("Top(1) = %v", got)
	}
	if top[1].Count != 3 || top[2].Count != 1 {
		t.Fatalf("counter tallies wrong: top=%v", top)
	}
}

// Property: DeriveSeed is a pure function.
func TestDeriveSeedPureProperty(t *testing.T) {
	f := func(seed int64, label string) bool {
		return DeriveSeed(seed, label) == DeriveSeed(seed, label)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
