// Package estimate answers approximate queries from the uniform samples the
// warehouse stores — the "quick approximate analytics and metadata
// discovery" that motivate the paper. Because HB/HR samples are
// statistically uniform (a Bernoulli sample conditioned on its size is a
// simple random sample), classical SRS estimators with finite-population
// correction apply: COUNT, SUM, AVG and selectivity with normal-theory
// confidence intervals, distinct-value estimation (Chao1 and GEE), sample
// quantiles, and scaled top-k frequencies. Value-set resemblance estimators
// support metadata-discovery tasks in the style of BHUNT/CORDS (paper [3],
// [15]).
package estimate

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"samplewh/internal/core"
)

// ZCrit maps a confidence level to the two-sided normal critical value used
// for intervals; only the conventional levels are supported.
func ZCrit(confidence float64) (float64, error) {
	switch confidence {
	case 0.90:
		return 1.6448536269514722, nil
	case 0.95:
		return 1.959963984540054, nil
	case 0.99:
		return 2.5758293035489004, nil
	default:
		return 0, fmt.Errorf("estimate: unsupported confidence level %v (use 0.90, 0.95 or 0.99)", confidence)
	}
}

// Estimate is a point estimate with a normal-theory confidence interval. It
// marshals to JSON so serving layers (cmd/swd) can return it verbatim.
type Estimate struct {
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr"`
	// Lo and Hi are the confidence bounds.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Exact is true when derived from an exhaustive sample.
	Exact bool `json:"exact"`
}

// String renders the estimate.
func (e Estimate) String() string {
	if e.Exact {
		return fmt.Sprintf("%.6g (exact)", e.Value)
	}
	return fmt.Sprintf("%.6g ± %.3g [%.6g, %.6g]", e.Value, e.StdErr, e.Lo, e.Hi)
}

// Estimator answers approximate queries over one sample.
type Estimator[V comparable] struct {
	s *core.Sample[V]
	z float64
}

// New builds an estimator at 95% confidence.
func New[V comparable](s *core.Sample[V]) *Estimator[V] {
	e, err := NewWithConfidence(s, 0.95)
	if err != nil {
		panic(err) // unreachable: 0.95 is always supported
	}
	return e
}

// NewWithConfidence builds an estimator with the given confidence level
// (0.90, 0.95 or 0.99).
func NewWithConfidence[V comparable](s *core.Sample[V], confidence float64) (*Estimator[V], error) {
	if s == nil || s.Hist == nil {
		return nil, fmt.Errorf("estimate: nil sample")
	}
	z, err := ZCrit(confidence)
	if err != nil {
		return nil, err
	}
	return &Estimator[V]{s: s, z: z}, nil
}

// Sample returns the underlying sample.
func (e *Estimator[V]) Sample() *core.Sample[V] { return e.s }

// interval finishes an Estimate from a point value and standard error.
func (e *Estimator[V]) interval(value, stderr float64) Estimate {
	exact := e.s.Kind == core.Exhaustive
	if exact {
		stderr = 0
	}
	return Estimate{
		Value:  value,
		StdErr: stderr,
		Lo:     value - e.z*stderr,
		Hi:     value + e.z*stderr,
		Exact:  exact,
	}
}

// Fraction estimates the fraction of data-set elements whose value satisfies
// pred (the selectivity of the predicate).
func (e *Estimator[V]) Fraction(pred func(V) bool) (Estimate, error) {
	n := e.s.Size()
	if n == 0 {
		return Estimate{}, fmt.Errorf("estimate: empty sample")
	}
	var match int64
	e.s.Hist.Each(func(v V, c int64) {
		if pred(v) {
			match += c
		}
	})
	return e.share(float64(match) / float64(n)), nil
}

// Count estimates the number of data-set elements whose value satisfies
// pred: N times the sample selectivity.
func (e *Estimator[V]) Count(pred func(V) bool) (Estimate, error) {
	frac, err := e.Fraction(pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.count(frac), nil
}

// share is the interval of a proportion p of the sample, clamped to [0, 1].
func (e *Estimator[V]) share(p float64) Estimate {
	est := e.interval(p, srsSE(p, e.s.Size(), e.s.ParentSize))
	est.Lo, est.Hi = max(est.Lo, 0), min(est.Hi, 1)
	return est
}

// count carries a share's estimate to the N rows the sample covers, clamped
// to [0, N].
func (e *Estimator[V]) count(share Estimate) Estimate {
	N := float64(e.s.ParentSize)
	est := e.interval(share.Value*N, share.StdErr*N)
	est.Lo, est.Hi = max(est.Lo, 0), min(est.Hi, N)
	return est
}

// Avg estimates the mean of f(v) over the data set.
func (e *Estimator[V]) Avg(f func(V) float64) (Estimate, error) {
	n := e.s.Size()
	if n == 0 {
		return Estimate{}, fmt.Errorf("estimate: empty sample")
	}
	var sum, sumsq float64
	e.s.Hist.Each(func(v V, c int64) {
		x := f(v)
		sum += x * float64(c)
		sumsq += x * x * float64(c)
	})
	mean := sum / float64(n)
	var se float64
	if n > 1 {
		variance := (sumsq - sum*mean) / float64(n-1)
		if variance < 0 {
			variance = 0
		}
		se = math.Sqrt(variance/float64(n)) * fpc(n, e.s.ParentSize)
	}
	return e.interval(mean, se), nil
}

// Sum estimates the total of f(v) over the data set: N times the mean.
func (e *Estimator[V]) Sum(f func(V) float64) (Estimate, error) {
	avg, err := e.Avg(f)
	if err != nil {
		return Estimate{}, err
	}
	N := float64(e.s.ParentSize)
	return e.interval(avg.Value*N, avg.StdErr*N), nil
}

// DistinctNaive returns the number of distinct values in the sample — a
// lower bound on the data set's distinct count.
func (e *Estimator[V]) DistinctNaive() int64 {
	return int64(e.s.Hist.Distinct())
}

// DistinctChao1 estimates the distinct-value count with the Chao1
// abundance estimator d + f1²/(2·f2), where f_i is the number of values
// occurring exactly i times in the sample. For exhaustive samples it
// returns the exact count.
func (e *Estimator[V]) DistinctChao1() float64 {
	d := float64(e.s.Hist.Distinct())
	if e.s.Kind == core.Exhaustive {
		return d
	}
	var f1, f2 float64
	e.s.Hist.Each(func(_ V, c int64) {
		switch c {
		case 1:
			f1++
		case 2:
			f2++
		}
	})
	// Bias-corrected Chao1 (handles f2 = 0 gracefully); the distinct count
	// can never exceed the population size, so clamp.
	est := d + f1*(f1-1)/(2*(f2+1))
	if max := float64(e.s.ParentSize); est > max {
		est = max
	}
	return est
}

// DistinctGEE estimates the distinct-value count with the
// Guaranteed-Error Estimator of Charikar et al.:
// sqrt(N/n)·f1 + Σ_{i≥2} f_i. For exhaustive samples it returns the exact
// count.
func (e *Estimator[V]) DistinctGEE() float64 {
	d := float64(e.s.Hist.Distinct())
	if e.s.Kind == core.Exhaustive || e.s.Size() == 0 {
		return d
	}
	var f1, rest float64
	e.s.Hist.Each(func(_ V, c int64) {
		if c == 1 {
			f1++
		} else {
			rest++
		}
	})
	scale := math.Sqrt(float64(e.s.ParentSize) / float64(e.s.Size()))
	est := scale*f1 + rest
	if max := float64(e.s.ParentSize); est > max {
		est = max
	}
	return est
}

// FreqEntry is one value with its estimated data-set frequency.
type FreqEntry[V comparable] struct {
	Value     V       `json:"value"`
	Estimated float64 `json:"estimated"` // estimated occurrences in the full data set
	InSample  int64   `json:"in_sample"` // occurrences in the sample
}

// TopK returns the k most frequent sample values with their frequencies
// scaled to data-set cardinality (N/n scaling). Ties break arbitrarily but
// deterministically.
func (e *Estimator[V]) TopK(k int) []FreqEntry[V] {
	if k <= 0 || e.s.Size() == 0 {
		return nil
	}
	scale := float64(e.s.ParentSize) / float64(e.s.Size())
	entries := make([]FreqEntry[V], 0, e.s.Hist.Distinct())
	e.s.Hist.Each(func(v V, c int64) {
		entries = append(entries, FreqEntry[V]{Value: v, Estimated: float64(c) * scale, InSample: c})
	})
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].InSample > entries[j].InSample })
	if k > len(entries) {
		k = len(entries)
	}
	return entries[:k]
}

// Diff returns the estimated difference a − b between two estimates derived
// from independent samples (e.g. this week's COUNT vs last week's), with the
// standard errors combined in quadrature. The 95% interval uses the normal
// critical value; pass estimates built at the same confidence level.
func Diff(a, b Estimate) Estimate {
	se := math.Sqrt(a.StdErr*a.StdErr + b.StdErr*b.StdErr)
	const z = 1.959963984540054
	v := a.Value - b.Value
	return Estimate{
		Value:  v,
		StdErr: se,
		Lo:     v - z*se,
		Hi:     v + z*se,
		Exact:  a.Exact && b.Exact,
	}
}

// GroupResult is one group's estimated aggregate.
type GroupResult[K comparable] struct {
	Key   K        `json:"key"`
	Count Estimate `json:"count"` // estimated number of data-set elements in the group
	Share Estimate `json:"share"` // estimated fraction of the data set in the group
}

// GroupBy estimates a GROUP BY COUNT(*) over the data set: values are
// assigned to groups by key, and each group's population count is estimated
// with its confidence interval. Groups are returned in decreasing estimated
// count; only groups observed in the sample appear (unseen groups are, by
// definition, estimated at zero).
func GroupBy[V comparable, K comparable](e *Estimator[V], key func(V) K) ([]GroupResult[K], error) {
	n := e.s.Size()
	if n == 0 {
		return nil, fmt.Errorf("estimate: empty sample")
	}
	counts := make(map[K]int64)
	e.s.Hist.Each(func(v V, c int64) { counts[key(v)] += c })
	out := make([]GroupResult[K], 0, len(counts))
	for k, c := range counts {
		share := e.share(float64(c) / float64(n))
		out = append(out, GroupResult[K]{Key: k, Count: e.count(share), Share: share})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count.Value > out[j].Count.Value })
	return out, nil
}

// OrderedEstimator adds order-dependent queries for values with a total
// order supplied by less.
type OrderedEstimator[V comparable] struct {
	*Estimator[V]
	sorted []V // expanded sample, sorted ascending
}

// NewOrdered builds an ordered estimator; the expansion costs O(|S|) memory.
func NewOrdered[V comparable](s *core.Sample[V], less func(a, b V) bool) (*OrderedEstimator[V], error) {
	base, err := NewWithConfidence(s, 0.95)
	if err != nil {
		return nil, err
	}
	bag := s.Hist.Expand()
	// Equal bare values are interchangeable, so stability buys nothing here.
	slices.SortFunc(bag, func(a, b V) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
	return &OrderedEstimator[V]{Estimator: base, sorted: bag}, nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the data set as the
// corresponding sample quantile.
func (e *OrderedEstimator[V]) Quantile(q float64) (V, error) {
	var zero V
	if len(e.sorted) == 0 {
		return zero, fmt.Errorf("estimate: empty sample")
	}
	if !(q >= 0 && q <= 1) {
		return zero, fmt.Errorf("estimate: quantile %v outside [0,1]", q)
	}
	idx := int(q * float64(len(e.sorted)-1))
	return e.sorted[idx], nil
}

// Median estimates the data-set median.
func (e *OrderedEstimator[V]) Median() (V, error) { return e.Quantile(0.5) }

// Quantiles estimates several quantiles at once; qs must each lie in [0,1].
func (e *OrderedEstimator[V]) Quantiles(qs ...float64) ([]V, error) {
	out := make([]V, len(qs))
	for i, q := range qs {
		v, err := e.Quantile(q)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// EquiDepth returns the boundaries of a b-bucket equi-depth histogram of the
// data set, estimated from the sample: b−1 interior quantile boundaries such
// that each bucket holds roughly N/b elements. Building approximate
// equi-depth histograms is one of the classical uses of warehouse samples
// (query optimization statistics).
func (e *OrderedEstimator[V]) EquiDepth(b int) ([]V, error) {
	if b < 2 {
		return nil, fmt.Errorf("estimate: EquiDepth needs at least 2 buckets, got %d", b)
	}
	bounds := make([]V, 0, b-1)
	for i := 1; i < b; i++ {
		v, err := e.Quantile(float64(i) / float64(b))
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, v)
	}
	return bounds, nil
}

// JoinSizeEstimate estimates the size of the natural (equality) join
// |A ⋈ B| = Σ_v f_A(v)·f_B(v) from two independent uniform samples, by the
// plug-in estimator Σ over commonly-sampled values of the scaled frequency
// product. This is the textbook sample-based join estimator (cf. the join
// synopses the paper cites [13]): unbiased-ish for frequent join keys but a
// systematic UNDERESTIMATE when many join keys are sampled in only one side
// — treat it as a lower-bound indicator for join-candidate screening, not a
// cardinality oracle.
func JoinSizeEstimate[V comparable](a, b *core.Sample[V]) (float64, error) {
	if a == nil || b == nil || a.Hist == nil || b.Hist == nil {
		return 0, fmt.Errorf("estimate: nil sample")
	}
	if a.Size() == 0 || b.Size() == 0 {
		return 0, fmt.Errorf("estimate: empty sample")
	}
	scaleA := float64(a.ParentSize) / float64(a.Size())
	scaleB := float64(b.ParentSize) / float64(b.Size())
	var total float64
	a.Hist.Each(func(v V, ca int64) {
		if cb := b.Hist.Count(v); cb > 0 {
			total += float64(ca) * scaleA * float64(cb) * scaleB
		}
	})
	return total, nil
}

// Resemblance holds value-set overlap estimates between two samples — the
// raw material of sampling-based metadata discovery (e.g. finding join
// candidates or fuzzy inclusion dependencies, paper [3], [15]).
type Resemblance struct {
	// Jaccard is |A ∩ B| / |A ∪ B| over the sampled distinct-value sets.
	Jaccard float64 `json:"jaccard"`
	// ContainmentAinB is |A ∩ B| / |A| (fraction of A's sampled values
	// also seen in B).
	ContainmentAinB float64 `json:"containment_a_in_b"`
	// ContainmentBinA is |A ∩ B| / |B|.
	ContainmentBinA float64 `json:"containment_b_in_a"`
	// CommonValues is the number of distinct values observed in both
	// samples.
	CommonValues int `json:"common_values"`
}

// ValueSetResemblance estimates the distinct-value overlap between the data
// sets behind two samples. These are sample-based plug-in estimates: exact
// when both samples are exhaustive, increasingly noisy for small sampling
// fractions.
func ValueSetResemblance[V comparable](a, b *core.Sample[V]) (Resemblance, error) {
	if a == nil || b == nil || a.Hist == nil || b.Hist == nil {
		return Resemblance{}, fmt.Errorf("estimate: nil sample")
	}
	da, db := a.Hist.Distinct(), b.Hist.Distinct()
	if da == 0 || db == 0 {
		return Resemblance{}, fmt.Errorf("estimate: empty sample")
	}
	var common int
	a.Hist.Each(func(v V, _ int64) {
		if b.Hist.Count(v) > 0 {
			common++
		}
	})
	union := da + db - common
	return Resemblance{
		Jaccard:         float64(common) / float64(union),
		ContainmentAinB: float64(common) / float64(da),
		ContainmentBinA: float64(common) / float64(db),
		CommonValues:    common,
	}, nil
}
