// Package stats provides the statistical testing substrate used to audit the
// sampling algorithms: the regularized incomplete gamma function and
// chi-square goodness-of-fit tests (used to verify that HB, HR and the merge
// procedures are uniform and that concise sampling is not).
package stats

import (
	"fmt"
	"math"
)

// GammaP returns the regularized lower incomplete gamma function P(a, x),
// the CDF of a Gamma(a, 1) variable at x. It uses the series expansion for
// x < a+1 and the continued fraction otherwise (both from standard numerical
// practice), accurate to roughly 1e-12.
func GammaP(a, x float64) float64 {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: GammaP domain error: a=%v x=%v", a, x))
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	return 1 - gammaQCF(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series.
func gammaPSeries(a, x float64) float64 {
	const maxIter = 1000
	const eps = 1e-15
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

// gammaQCF evaluates Q(a,x) = 1 − P(a,x) by the Lentz continued fraction.
func gammaQCF(a, x float64) float64 {
	const maxIter = 1000
	const eps = 1e-15
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

// ChiSquareCDF returns P{X <= x} for a chi-square variable with df degrees
// of freedom.
func ChiSquareCDF(x float64, df int) float64 {
	if df < 1 {
		panic(fmt.Sprintf("stats: ChiSquareCDF with df = %d < 1", df))
	}
	if x <= 0 {
		return 0
	}
	return GammaP(float64(df)/2, x/2)
}

// ChiSquareResult reports a goodness-of-fit test.
type ChiSquareResult struct {
	Stat   float64 // the X² statistic
	DF     int     // degrees of freedom
	PValue float64 // P{X² >= Stat} under the null
}

// Reject reports whether the null hypothesis is rejected at level alpha.
func (r ChiSquareResult) Reject(alpha float64) bool { return r.PValue < alpha }

// String renders the result.
func (r ChiSquareResult) String() string {
	return fmt.Sprintf("chi2=%.4f df=%d p=%.6g", r.Stat, r.DF, r.PValue)
}

// ChiSquareGOF tests observed counts against expected counts (same length,
// expected all positive). ddof extra degrees of freedom are subtracted
// beyond the usual len−1 (for estimated parameters). It returns an error if
// the inputs are malformed or if any expected cell is below 1 (too sparse
// for the asymptotic test).
func ChiSquareGOF(observed []int64, expected []float64, ddof int) (ChiSquareResult, error) {
	var r ChiSquareResult
	if len(observed) != len(expected) {
		return r, fmt.Errorf("stats: observed has %d cells, expected has %d",
			len(observed), len(expected))
	}
	if len(observed) < 2 {
		return r, fmt.Errorf("stats: chi-square needs at least 2 cells, got %d", len(observed))
	}
	for i, e := range expected {
		if e < 1 {
			return r, fmt.Errorf("stats: expected count %g in cell %d is below 1; merge cells", e, i)
		}
		d := float64(observed[i]) - e
		r.Stat += d * d / e
	}
	r.DF = len(observed) - 1 - ddof
	if r.DF < 1 {
		return r, fmt.Errorf("stats: non-positive degrees of freedom %d", r.DF)
	}
	r.PValue = 1 - ChiSquareCDF(r.Stat, r.DF)
	return r, nil
}

// ChiSquareUniform tests observed counts against the uniform distribution
// over the cells.
func ChiSquareUniform(observed []int64) (ChiSquareResult, error) {
	var total int64
	for _, o := range observed {
		total += o
	}
	expected := make([]float64, len(observed))
	for i := range expected {
		expected[i] = float64(total) / float64(len(observed))
	}
	return ChiSquareGOF(observed, expected, 0)
}
