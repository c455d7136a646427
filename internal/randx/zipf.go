package randx

import (
	"fmt"
	"math"
)

// Zipf generates integers in {1, ..., v} following a Zipf distribution with
// skew parameter s > 0: P(i) ∝ 1/i^s. The paper's third evaluation data set
// is "integer values over the range of 1 to 4000 having a Zipf distribution";
// the classical default skew is s = 1.
//
// For the moderate supports used in the experiments the generator
// precomputes the CDF once and samples by binary-search inversion, giving
// exact probabilities and O(log v) draws.
type Zipf struct {
	v   int64
	cdf []float64
}

// NewZipf builds a Zipf(v, s) generator. It panics if v < 1 or s <= 0.
func NewZipf(v int64, s float64) *Zipf {
	if v < 1 {
		panic(fmt.Sprintf("randx: NewZipf with v = %d < 1", v))
	}
	if s <= 0 || math.IsNaN(s) {
		panic(fmt.Sprintf("randx: NewZipf with s = %v <= 0", s))
	}
	z := &Zipf{v: v, cdf: make([]float64, v)}
	var sum float64
	for i := int64(1); i <= v; i++ {
		sum += math.Pow(float64(i), -s)
		z.cdf[i-1] = sum
	}
	inv := 1 / sum
	for i := range z.cdf {
		z.cdf[i] *= inv
	}
	z.cdf[v-1] = 1
	return z
}

// PMF returns P(i) for i in {1..v}, 0 outside.
func (z *Zipf) PMF(i int64) float64 {
	switch {
	case i < 1 || i > z.v:
		return 0
	case i == 1:
		return z.cdf[0]
	default:
		return z.cdf[i-1] - z.cdf[i-2]
	}
}

// Sample draws a Zipf variate in {1, ..., v}.
func (z *Zipf) Sample(s Source) int64 {
	return z.Quantile(Float64(s))
}

// Quantile returns the smallest i with CDF(i) >= u, i.e. the inverse-CDF
// transform of a uniform [0,1) variate. It lets counter-based workload
// generators evaluate "the Zipf value at stream position j" as a pure
// function.
func (z *Zipf) Quantile(u float64) int64 {
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int64(lo) + 1
}
