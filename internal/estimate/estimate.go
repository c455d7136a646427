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
	"cmp"
	"fmt"
	"math"
	"slices"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
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
type Estimator[V cmp.Ordered] struct {
	s *core.Sample[V]
	z float64
}

// New builds an estimator at 95% confidence.
func New[V cmp.Ordered](s *core.Sample[V]) *Estimator[V] {
	e, err := NewWithConfidence(s, 0.95)
	if err != nil {
		panic(err) // unreachable: 0.95 is always supported
	}
	return e
}

// NewWithConfidence builds an estimator with the given confidence level
// (0.90, 0.95 or 0.99).
func NewWithConfidence[V cmp.Ordered](s *core.Sample[V], confidence float64) (*Estimator[V], error) {
	if s == nil || s.Hist == nil {
		return nil, fmt.Errorf("estimate: nil sample")
	}
	z, err := ZCrit(confidence)
	if err != nil {
		return nil, err
	}
	return &Estimator[V]{s: s, z: z}, nil
}

// Fraction estimates the fraction of data-set elements whose value satisfies
// pred (the selectivity of the predicate).
func (e *Estimator[V]) Fraction(pred func(V) bool) (Estimate, error) {
	return Interval(Design[V]{Sample: e.s}, "fraction", Indicator(pred), e.z)
}

// Count estimates the number of data-set elements whose value satisfies
// pred: N times the sample selectivity.
func (e *Estimator[V]) Count(pred func(V) bool) (Estimate, error) {
	return Interval(Design[V]{Sample: e.s}, "count", Indicator(pred), e.z)
}

// Avg estimates the mean of f(v) over the data set.
func (e *Estimator[V]) Avg(f func(V) float64) (Estimate, error) {
	return Interval(Design[V]{Sample: e.s}, "avg", f, e.z)
}

// Sum estimates the total of f(v) over the data set: N times the mean.
func (e *Estimator[V]) Sum(f func(V) float64) (Estimate, error) {
	return Interval(Design[V]{Sample: e.s}, "sum", f, e.z)
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
type FreqEntry[V cmp.Ordered] struct {
	Value     V       `json:"value"`
	Estimated float64 `json:"estimated"` // estimated occurrences in the full data set
	InSample  int64   `json:"in_sample"` // occurrences in the sample
}

// TopK returns the k most frequent sample values with their frequencies
// scaled to data-set cardinality (N/n scaling). Ties list in ascending value.
func (e *Estimator[V]) TopK(k int) []FreqEntry[V] {
	if k <= 0 || e.s.Size() == 0 {
		return nil
	}
	scale := float64(e.s.ParentSize) / float64(e.s.Size())
	entries := make([]FreqEntry[V], 0, e.s.Hist.Distinct())
	e.s.Hist.Each(func(v V, c int64) {
		entries = append(entries, FreqEntry[V]{Value: v, Estimated: float64(c) * scale, InSample: c})
	})
	slices.SortFunc(entries, func(a, b FreqEntry[V]) int {
		return cmp.Or(cmp.Compare(b.InSample, a.InSample), cmp.Compare(a.Value, b.Value))
	})
	if k > len(entries) {
		k = len(entries)
	}
	return entries[:k]
}

// GroupResult is one group's estimated aggregate.
type GroupResult[K cmp.Ordered] struct {
	Key   K        `json:"key"`
	Count Estimate `json:"count"` // estimated number of data-set elements in the group
	Share Estimate `json:"share"` // estimated fraction of the data set in the group
}

// GroupBy estimates a GROUP BY COUNT(*) over the data set: values are
// assigned to groups by key, and each group's population count is estimated
// with its confidence interval. Groups are returned in decreasing estimated
// count, ties in ascending key; only groups observed in the sample appear
// (unseen groups are, by definition, estimated at zero).
func GroupBy[V cmp.Ordered, K cmp.Ordered](e *Estimator[V], key func(V) K) ([]GroupResult[K], error) {
	n := e.s.Size()
	if n == 0 {
		return nil, fmt.Errorf("estimate: empty sample")
	}
	counts := make(map[K]int64)
	e.s.Hist.Each(func(v V, c int64) { counts[key(v)] += c })
	out := make([]GroupResult[K], 0, len(counts))
	for k, c := range counts {
		share, count := proportion(float64(c)/float64(n), n, e.s.ParentSize, e.z, e.s.Kind == core.Exhaustive)
		out = append(out, GroupResult[K]{Key: k, Count: count, Share: share})
	}
	slices.SortFunc(out, func(a, b GroupResult[K]) int {
		return cmp.Or(cmp.Compare(b.Count.Value, a.Count.Value), cmp.Compare(a.Key, b.Key))
	})
	return out, nil
}

// OrderedEstimator adds order-dependent queries for values with a total
// order supplied by less.
type OrderedEstimator[V cmp.Ordered] struct {
	*Estimator[V]
	sorted *histogram.Histogram[V] // the sample's entries, ascending by less
}

// NewOrdered builds an ordered estimator. A sample whose entries are already
// in ascending order of less — every merged or stored one — is walked in
// place, with nothing allocated beyond the estimator; any other is copied
// once, as entries, and sorted.
func NewOrdered[V cmp.Ordered](s *core.Sample[V], less func(a, b V) bool) (*OrderedEstimator[V], error) {
	base, err := NewWithConfidence(s, 0.95)
	if err != nil {
		return nil, err
	}
	h := s.Hist
	for i := 1; i < h.Distinct(); i++ {
		if less(h.Entry(i).Value, h.Entry(i-1).Value) {
			es := h.Entries()
			// Values are distinct, so stability buys nothing here.
			slices.SortFunc(es, func(a, b histogram.Entry[V]) int {
				switch {
				case less(a.Value, b.Value):
					return -1
				case less(b.Value, a.Value):
					return 1
				}
				return 0
			})
			h = histogram.FromEntries(h.Model(), es)
			break
		}
	}
	return &OrderedEstimator[V]{Estimator: base, sorted: h}, nil
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the data set as the
// corresponding sample quantile: element ⌊q·(|S|−1)⌋ of the sorted expanded
// sample, found by walking the entries' cumulative counts.
func (e *OrderedEstimator[V]) Quantile(q float64) (V, error) {
	var zero V
	size := e.sorted.Size()
	if size == 0 {
		return zero, fmt.Errorf("estimate: empty sample")
	}
	if !(q >= 0 && q <= 1) {
		return zero, fmt.Errorf("estimate: quantile %v outside [0,1]", q)
	}
	idx := int64(q * float64(size-1))
	i := 0
	for cum := e.sorted.Entry(0).Count; cum <= idx; cum += e.sorted.Entry(i).Count {
		i++
	}
	return e.sorted.Entry(i).Value, nil
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
func JoinSizeEstimate[V cmp.Ordered](a, b *core.Sample[V]) (float64, error) {
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
func ValueSetResemblance[V cmp.Ordered](a, b *core.Sample[V]) (Resemblance, error) {
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
