package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf draws ranks in [0, n) with probability P(i) ∝ 1/(i+1)^alpha.
//
// The stdlib rand.Zipf requires s > 1, but the paper's Figure 2(a)
// uses α = 0.5 ("a zipfian distribution similar to Wikipedia"), so we
// implement the general case. For moderate n we build the exact CDF
// and invert it by binary search; for very large n we fall back to
// continuous inverse-transform sampling, the standard approximation.
type Zipf struct {
	rng   *rand.Rand
	n     int
	alpha float64

	// exact mode
	cdf []float64

	// approximate (continuous) mode
	oneMinusAlpha float64
	span          float64 // (n+1)^(1-α) - 1
	harmonic      bool    // α == 1: use log-based inversion
	logN1         float64
}

// maxExactN bounds the CDF table (8 bytes per rank).
const maxExactN = 1 << 22

// NewZipf returns a zipfian generator over [0, n) with exponent alpha ≥ 0.
// alpha = 0 degenerates to uniform. It panics if n <= 0 or alpha < 0;
// generator construction errors are programmer errors, not runtime
// conditions.
func NewZipf(rng *rand.Rand, n int, alpha float64) *Zipf {
	if n <= 0 {
		panic(fmt.Sprintf("workload: NewZipf n must be positive, got %d", n))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("workload: NewZipf alpha must be non-negative, got %g", alpha))
	}
	z := &Zipf{rng: rng, n: n, alpha: alpha}
	if n <= maxExactN {
		z.cdf = make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += math.Pow(float64(i+1), -alpha)
			z.cdf[i] = sum
		}
		// Normalize so the final entry is exactly 1.
		for i := range z.cdf {
			z.cdf[i] /= sum
		}
		z.cdf[n-1] = 1
		return z
	}
	z.oneMinusAlpha = 1 - alpha
	if math.Abs(z.oneMinusAlpha) < 1e-9 {
		z.harmonic = true
		z.logN1 = math.Log(float64(n + 1))
	} else {
		z.span = math.Pow(float64(n+1), z.oneMinusAlpha) - 1
	}
	return z
}

// Next draws the next rank. Rank 0 is the most popular.
func (z *Zipf) Next() int {
	if z.cdf != nil {
		u := z.rng.Float64()
		return sort.SearchFloat64s(z.cdf, u)
	}
	u := z.rng.Float64()
	var x float64
	if z.harmonic {
		x = math.Exp(u * z.logN1)
	} else {
		x = math.Pow(1+u*z.span, 1/z.oneMinusAlpha)
	}
	r := int(x) - 1
	if r < 0 {
		r = 0
	}
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// Probability returns the exact P(rank = i) under the distribution.
// Only available in exact mode; it panics otherwise (used by tests).
func (z *Zipf) Probability(i int) float64 {
	if z.cdf == nil {
		panic("workload: Probability requires exact mode (n <= maxExactN)")
	}
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
