package stats

import (
	"errors"
	"math"
)

// Proportion is a count of successes out of a number of trials.
type Proportion struct {
	Successes int
	Trials    int
}

// Value returns the sample proportion, or 0 for an empty sample.
func (p Proportion) Value() float64 {
	if p.Trials == 0 {
		return 0
	}
	return float64(p.Successes) / float64(p.Trials)
}

// ZTestResult reports a two-proportion Z test, the procedure the paper uses
// in §3.5 to compare the multi-crawler fraction of UID smuggling on
// fingerprinting vs. non-fingerprinting originators.
type ZTestResult struct {
	// Z is the test statistic.
	Z float64
	// PValue is the two-tailed p-value.
	PValue float64
	// PooledP is the pooled proportion used by the statistic.
	PooledP float64
	// Diff is p1 - p2.
	Diff float64
}

// ErrDegenerateSample is returned when a Z test cannot be computed (empty
// groups, or a pooled proportion of exactly 0 or 1, which makes the
// standard error zero).
var ErrDegenerateSample = errors.New("stats: degenerate sample for z-test")

// TwoProportionZTest performs the classic pooled two-proportion Z test.
func TwoProportionZTest(a, b Proportion) (ZTestResult, error) {
	if a.Trials == 0 || b.Trials == 0 {
		return ZTestResult{}, ErrDegenerateSample
	}
	n1, n2 := float64(a.Trials), float64(b.Trials)
	p1, p2 := a.Value(), b.Value()
	pooled := float64(a.Successes+b.Successes) / (n1 + n2)
	se := math.Sqrt(pooled * (1 - pooled) * (1/n1 + 1/n2))
	if se == 0 {
		return ZTestResult{}, ErrDegenerateSample
	}
	z := (p1 - p2) / se
	return ZTestResult{
		Z:       z,
		PValue:  2 * (1 - StdNormalCDF(math.Abs(z))),
		PooledP: pooled,
		Diff:    p1 - p2,
	}, nil
}

// StdNormalCDF returns the standard normal cumulative distribution function
// at x, computed via the complementary error function.
func StdNormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}
