package stats

import "math"

// ZipfRank maps a uniform u in [0, 1) to a rank in [1, n] with density
// approximately proportional to 1/rank^s, by inverting the CDF of the
// continuous Zipf approximation in closed form. It gives the synthetic
// web a realistic popularity skew: a handful of hyper-popular sites (the
// Sports-Reference- and Facebook-alikes of the paper's Figure 4) and a
// long tail. It holds no per-rank state, so popularity-biased sampling
// over a million-site lazy world costs O(1) memory instead of an 8 MB
// CDF table. s must not equal 1 (the skews used here are well below it).
func ZipfRank(n int, s, u float64) int {
	if n <= 1 {
		return 1
	}
	t := math.Pow(float64(n), 1-s)
	r := int(math.Pow(u*(t-1)+1, 1/(1-s)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}
