package randx

import (
	"fmt"
	"math"
)

// HypergeomDist is the precomputed probability vector of a hypergeometric
// distribution
//
//	P(l) = C(n1, l)·C(n2, k−l) / C(n1+n2, k),  l = 0, 1, ..., k,
//
// which is exactly the distribution the paper's computeProb builds for
// HRMerge (equation (2)): when merging two reservoir samples of disjoint
// partitions D1 and D2 into a simple random sample of size k, the number of
// elements taken from the D1 side is hypergeometric.
//
// The vector is computed with the paper's recurrence (3),
//
//	P(l+1) = (k−l)(n1−l) / ((l+1)(n2−k+l+1)) · P(l),
//
// applied outward from the mode so that no intermediate value overflows or
// underflows even for very large n1, n2.
type HypergeomDist struct {
	n1, n2, k int64
	lo, hi    int64     // support bounds: max(0,k−n2) .. min(k,n1)
	pmf       []float64 // pmf[i] = P(lo+i), normalized to sum 1
	cdf       []float64 // running sums for inversion sampling
}

// NewHypergeom builds the distribution of |sample ∩ D1| when a simple random
// sample of size k is drawn from the union of disjoint sets of sizes n1 and
// n2. It panics if the parameters are inconsistent (k < 0 or k > n1+n2).
func NewHypergeom(n1, n2, k int64) *HypergeomDist {
	if n1 < 0 || n2 < 0 || k < 0 || k > n1+n2 {
		panic(fmt.Sprintf("randx: NewHypergeom invalid parameters n1=%d n2=%d k=%d", n1, n2, k))
	}
	lo := int64(0)
	if k-n2 > 0 {
		lo = k - n2
	}
	hi := k
	if n1 < hi {
		hi = n1
	}
	d := &HypergeomDist{n1: n1, n2: n2, k: k, lo: lo, hi: hi}
	m := int(hi - lo + 1)
	d.pmf = make([]float64, m)
	d.cdf = make([]float64, m)

	// Mode of the hypergeometric distribution.
	mode := int64(math.Floor(float64(k+1) * float64(n1+1) / float64(n1+n2+2)))
	if mode < lo {
		mode = lo
	}
	if mode > hi {
		mode = hi
	}
	mi := int(mode - lo)
	d.pmf[mi] = 1 // un-normalized reference value at the mode

	// ratio(l) = P(l+1)/P(l), paper recurrence (3).
	ratio := func(l int64) float64 {
		num := float64(k-l) * float64(n1-l)
		den := float64(l+1) * float64(n2-k+l+1)
		return num / den
	}
	// Fill upward from the mode.
	for l := mode; l < hi; l++ {
		d.pmf[int(l-lo)+1] = d.pmf[int(l-lo)] * ratio(l)
	}
	// Fill downward from the mode.
	for l := mode; l > lo; l-- {
		r := ratio(l - 1)
		if r == 0 {
			// P(l)/P(l−1) = 0 would mean P(l−1) = ∞; cannot happen inside
			// the support, guard anyway.
			d.pmf[int(l-lo)-1] = 0
			continue
		}
		d.pmf[int(l-lo)-1] = d.pmf[int(l-lo)] / r
	}
	// Normalize and accumulate.
	var sum float64
	for _, v := range d.pmf {
		sum += v
	}
	inv := 1 / sum
	var run float64
	for i, v := range d.pmf {
		d.pmf[i] = v * inv
		run += d.pmf[i]
		d.cdf[i] = run
	}
	d.cdf[m-1] = 1 // clamp the final entry against rounding
	return d
}

// Support returns the inclusive bounds [lo, hi] of the distribution.
func (d *HypergeomDist) Support() (lo, hi int64) { return d.lo, d.hi }

// PMF returns P(l). Values outside the support return 0.
func (d *HypergeomDist) PMF(l int64) float64 {
	if l < d.lo || l > d.hi {
		return 0
	}
	return d.pmf[int(l-d.lo)]
}

// Mean returns the exact mean k·n1/(n1+n2).
func (d *HypergeomDist) Mean() float64 {
	if d.n1+d.n2 == 0 {
		return 0
	}
	return float64(d.k) * float64(d.n1) / float64(d.n1+d.n2)
}

// Sample draws a variate by inversion: generate U ~ uniform[0,1] and return
// the smallest l with U ≤ CDF(l). This is the paper's "straightforward
// inversion approach", implemented with binary search over the precomputed
// CDF so repeated draws cost O(log k).
func (d *HypergeomDist) Sample(s Source) int64 {
	u := Float64(s)
	// Binary search for the first index with cdf >= u.
	lo, hi := 0, len(d.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.lo + int64(lo)
}

// SampleLinear draws a variate by forward linear scan of the CDF. It exists
// to mirror the paper's textual description exactly and as a baseline for
// the ablation benchmark against binary-search inversion and alias sampling.
func (d *HypergeomDist) SampleLinear(s Source) int64 {
	u := Float64(s)
	for i, c := range d.cdf {
		if u <= c {
			return d.lo + int64(i)
		}
	}
	return d.hi
}

// Alias builds a Walker alias table over the distribution for O(1) repeated
// sampling. The paper recommends this when "merges are performed in a
// symmetric pairwise fashion" so many draws come from one fixed P (§4.2).
func (d *HypergeomDist) Alias() *AliasTable {
	return NewAliasTable(d.pmf, d.lo)
}

// hypergeomFloor is the term size, relative to the mode, below which
// Hypergeometric stops filling: a 53-bit uniform cannot land on a term
// smaller than 2⁻⁶⁴ of the mode, and adding one cannot change the float64 sum.
const hypergeomFloor = 0x1p-64

// Hypergeometric draws a single hypergeometric(n1, n2, k) variate without
// retaining the distribution. For one-shot use; callers that draw repeatedly
// from the same parameters should keep a *HypergeomDist or an *AliasTable.
//
// It inverts the same pmf as HypergeomDist.Sample — the smallest l with
// U ≤ CDF(l) — but allocates nothing: recurrence (3) is walked outward from
// the mode only while a term is at least hypergeomFloor of the mode, which
// finds the window [wlo, whi] holding all reachable mass, its sum and its
// lowest term; a second walk up from wlo stops where the running sum reaches
// U·sum. The cost is the window's width (a few standard deviations), not the
// support's. Exactly one uniform is consumed whatever the parameters, a
// one-point support included. It panics on inconsistent parameters, like
// NewHypergeom.
func Hypergeometric(s Source, n1, n2, k int64) int64 {
	if n1 < 0 || n2 < 0 || k < 0 || k > n1+n2 {
		panic(fmt.Sprintf("randx: Hypergeometric invalid parameters n1=%d n2=%d k=%d", n1, n2, k))
	}
	lo, hi := max(0, k-n2), min(k, n1)
	u := Float64(s)
	if lo == hi {
		return lo
	}
	mode := int64(math.Floor(float64(k+1) * float64(n1+1) / float64(n1+n2+2)))
	mode = max(lo, min(mode, hi))
	// ratio(l) = P(l+1)/P(l), paper recurrence (3); positive inside the support.
	ratio := func(l int64) float64 {
		return float64(k-l) * float64(n1-l) / (float64(l+1) * float64(n2-k+l+1))
	}
	sum := 1.0 // un-normalized reference value at the mode
	whi := mode
	for t := 1.0; whi < hi; whi++ {
		if t *= ratio(whi); t < hypergeomFloor {
			break
		}
		sum += t
	}
	wlo, tlo := mode, 1.0
	for wlo > lo {
		t := tlo / ratio(wlo-1)
		if t < hypergeomFloor {
			break
		}
		wlo, tlo = wlo-1, t
		sum += t
	}
	target := u * sum
	l, t, run := wlo, tlo, tlo
	for run < target && l < whi {
		t *= ratio(l)
		l++
		run += t
	}
	return l
}

// AliasTable supports O(1) sampling from an arbitrary discrete distribution
// using Walker's alias method (Law & Kelton §8; paper §4.2). The table maps
// index i (offset by base) to probability prob[i] with alias alias[i].
type AliasTable struct {
	base  int64
	prob  []float64
	alias []int
}

// NewAliasTable builds an alias table for the given pmf (assumed to sum to
// 1; it is renormalized defensively). base is added to every returned index
// so that tables over shifted supports can be built directly.
func NewAliasTable(pmf []float64, base int64) *AliasTable {
	n := len(pmf)
	if n == 0 {
		panic("randx: NewAliasTable with empty pmf")
	}
	var sum float64
	for _, v := range pmf {
		if v < 0 || math.IsNaN(v) {
			panic("randx: NewAliasTable with negative or NaN probability")
		}
		sum += v
	}
	if sum <= 0 {
		panic("randx: NewAliasTable with zero-mass pmf")
	}
	t := &AliasTable{
		base:  base,
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; a cell is "small" if scaled < 1.
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, v := range pmf {
		scaled[i] = v * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			large = large[:len(large)-1]
			small = append(small, l)
		}
	}
	// Remaining cells get probability 1 (self-aliased).
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Sample draws from the table: pick a uniform cell I, then return I with
// probability prob[I] and alias[I] otherwise.
func (t *AliasTable) Sample(s Source) int64 {
	i := Intn(s, len(t.prob))
	if Float64(s) <= t.prob[i] {
		return t.base + int64(i)
	}
	return t.base + int64(t.alias[i])
}

// Len returns the number of cells in the table.
func (t *AliasTable) Len() int { return len(t.prob) }
