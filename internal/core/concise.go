package core

import (
	"cmp"
	"fmt"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// DefaultPurgeFactor is the default multiplicative rate reduction applied at
// each concise-sampling purge step (q' = factor · q).
const DefaultPurgeFactor = 0.8

// ConciseSampler implements the concise sampling scheme of Gibbons & Matias
// (SIGMOD 1998) as described in the paper's §3.3: a compact bounded
// histogram whose Bernoulli sampling rate is systematically decreased to
// keep the footprint at or below F.
//
// The paper proves this scheme is NOT uniform — samples with fewer distinct
// values are favored, so infrequent values are underrepresented — which is
// exactly why Algorithms HB and HR replace it. It is provided as a baseline,
// and the non-uniformity is demonstrated empirically by the §3.3
// counterexample test and experiment.
type ConciseSampler[V cmp.Ordered] struct {
	cfg       Config
	factor    float64
	q         float64
	hist      *histogram.Histogram[V]
	seen      int64
	purges    int64
	src       randx.Source
	finalized bool
}

// NewConcise returns a concise sampler with footprint bound cfg.FootprintBytes
// and purge factor (0 < factor < 1; 0 selects DefaultPurgeFactor).
func NewConcise[V cmp.Ordered](cfg Config, factor float64, src randx.Source) *ConciseSampler[V] {
	cfg = cfg.normalized()
	if factor == 0 {
		factor = DefaultPurgeFactor
	}
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("core: NewConcise with purge factor %v outside (0,1)", factor))
	}
	return &ConciseSampler[V]{
		cfg:    cfg,
		factor: factor,
		q:      1,
		hist:   histogram.New[V](cfg.SizeModel),
		src:    src,
	}
}

// Q returns the current sampling rate.
func (c *ConciseSampler[V]) Q() float64 { return c.q }

// Purges returns the number of purge steps executed so far.
func (c *ConciseSampler[V]) Purges() int64 { return c.purges }

// Seen returns the number of elements processed.
func (c *ConciseSampler[V]) Seen() int64 { return c.seen }

// SampleSize returns the current number of sampled data elements.
func (c *ConciseSampler[V]) SampleSize() int64 { return c.hist.Size() }

// Feed processes the next arriving data element: include it with the current
// probability q; if its insertion would push the footprint past F, purge
// (repeatedly, if the luck of the draw frees no space) before inserting.
func (c *ConciseSampler[V]) Feed(v V) {
	if c.finalized {
		panic("core: ConciseSampler fed after Finalize")
	}
	c.seen++
	if !randx.Bernoulli(c.src, c.q) {
		return
	}
	for c.footprintAfter(v) > c.cfg.FootprintBytes {
		newQ := c.q * c.factor
		// The pending element must survive the same rate reduction as the
		// elements already in the sample.
		keepPending := randx.Bernoulli(c.src, newQ/c.q)
		PurgeBernoulli(c.hist, newQ/c.q, c.src)
		c.q = newQ
		c.purges++
		if !keepPending {
			return
		}
	}
	c.hist.Insert(v, 1)
}

// FeedN processes a run of n equal values one element at a time (the purge
// interleaving admits no exact bulk shortcut).
func (c *ConciseSampler[V]) FeedN(v V, n int64) {
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	for i := int64(0); i < n; i++ {
		c.Feed(v)
	}
}

// footprintAfter returns the footprint the histogram would have after one
// more occurrence of v.
func (c *ConciseSampler[V]) footprintAfter(v V) int64 {
	m := c.cfg.SizeModel
	switch c.hist.Count(v) {
	case 0:
		return c.hist.Footprint() + m.PairBytes(1)
	case 1:
		return c.hist.Footprint() + m.PairBytes(2) - m.PairBytes(1)
	default:
		return c.hist.Footprint()
	}
}

// Finalize returns the concise sample. The Kind is reported as Bernoulli
// with the final rate — callers must remember that, unlike Algorithm HB
// output, this sample is not statistically uniform.
func (c *ConciseSampler[V]) Finalize() (*Sample[V], error) {
	if c.finalized {
		return nil, fmt.Errorf("core: ConciseSampler already finalized")
	}
	c.finalized = true
	kind := BernoulliKind
	if c.q == 1 {
		kind = Exhaustive
	}
	return &Sample[V]{
		Kind:       kind,
		Hist:       c.hist,
		ParentSize: c.seen,
		Q:          c.q,
		Config:     c.cfg,
	}, nil
}

var _ Sampler[int64] = (*ConciseSampler[int64])(nil)

// CountingSampler implements the counting-sample extension of concise
// sampling (Gibbons & Matias; paper §3.3): once a value enters the sample,
// every later occurrence is counted exactly (no coin flip), and deletions in
// the parent data set can be propagated. Like concise sampling it is not
// uniform; it is provided for completeness as the deletion-capable baseline.
type CountingSampler[V cmp.Ordered] struct {
	cfg       Config
	factor    float64
	q         float64
	hist      *histogram.Histogram[V]
	seen      int64
	purges    int64
	src       randx.Source
	finalized bool
}

// NewCounting returns a counting sampler (see NewConcise for parameters).
func NewCounting[V cmp.Ordered](cfg Config, factor float64, src randx.Source) *CountingSampler[V] {
	cfg = cfg.normalized()
	if factor == 0 {
		factor = DefaultPurgeFactor
	}
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("core: NewCounting with purge factor %v outside (0,1)", factor))
	}
	return &CountingSampler[V]{
		cfg:    cfg,
		factor: factor,
		q:      1,
		hist:   histogram.New[V](cfg.SizeModel),
		src:    src,
	}
}

// Q returns the current admission rate for new values.
func (c *CountingSampler[V]) Q() float64 { return c.q }

// Seen returns the number of insertions processed.
func (c *CountingSampler[V]) Seen() int64 { return c.seen }

// SampleSize returns the current number of counted data elements.
func (c *CountingSampler[V]) SampleSize() int64 { return c.hist.Size() }

// Feed processes an insertion of v into the parent data set.
func (c *CountingSampler[V]) Feed(v V) {
	if c.finalized {
		panic("core: CountingSampler fed after Finalize")
	}
	c.seen++
	if c.hist.Count(v) > 0 {
		// Values already in the sample count every occurrence exactly;
		// the count never changes the footprint beyond the pair upgrade,
		// which was paid at admission.
		c.hist.Insert(v, 1)
		return
	}
	if !randx.Bernoulli(c.src, c.q) {
		return
	}
	for c.footprintAfter(v) > c.cfg.FootprintBytes {
		newQ := c.q * c.factor
		keepPending := randx.Bernoulli(c.src, newQ/c.q)
		c.purgeCounting(newQ)
		c.q = newQ
		c.purges++
		if !keepPending {
			return
		}
	}
	c.hist.Insert(v, 1)
}

// FeedN processes a run of n equal insertions.
func (c *CountingSampler[V]) FeedN(v V, n int64) {
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	for i := int64(0); i < n; i++ {
		c.Feed(v)
	}
}

// Delete processes a deletion of v from the parent data set: if v is
// tracked, its count is decremented (and the value dropped at zero). This is
// the capability concise sampling lacks.
func (c *CountingSampler[V]) Delete(v V) {
	if c.finalized {
		panic("core: CountingSampler fed after Finalize")
	}
	if c.seen > 0 {
		c.seen--
	}
	if c.hist.Count(v) > 0 {
		c.hist.Remove(v, 1)
	}
}

// purgeCounting performs the Gibbons–Matias counting-sample purge to the new
// rate newQ: for each tracked value, its "admission" survives with
// probability newQ/q; if the admission dies, each of the remaining counted
// occurrences is independently re-admitted with probability newQ.
func (c *CountingSampler[V]) purgeCounting(newQ float64) {
	ratio := newQ / c.q
	for i := 0; i < c.hist.Distinct(); {
		e := c.hist.Entry(i)
		if randx.Bernoulli(c.src, ratio) {
			i++
			continue
		}
		kept := int64(0)
		if e.Count > 1 {
			kept = randx.Binomial(c.src, e.Count-1, newQ)
		}
		before := c.hist.Distinct()
		c.hist.SetCount(i, kept)
		if c.hist.Distinct() == before {
			i++
		}
	}
}

// footprintAfter mirrors ConciseSampler.footprintAfter.
func (c *CountingSampler[V]) footprintAfter(v V) int64 {
	m := c.cfg.SizeModel
	switch c.hist.Count(v) {
	case 0:
		return c.hist.Footprint() + m.PairBytes(1)
	case 1:
		return c.hist.Footprint() + m.PairBytes(2) - m.PairBytes(1)
	default:
		return c.hist.Footprint()
	}
}

// Finalize returns the counting sample (not uniform; see type comment).
func (c *CountingSampler[V]) Finalize() (*Sample[V], error) {
	if c.finalized {
		return nil, fmt.Errorf("core: CountingSampler already finalized")
	}
	c.finalized = true
	kind := BernoulliKind
	if c.q == 1 {
		kind = Exhaustive
	}
	return &Sample[V]{
		Kind:       kind,
		Hist:       c.hist,
		ParentSize: c.seen,
		Q:          c.q,
		Config:     c.cfg,
	}, nil
}

var _ Sampler[int64] = (*CountingSampler[int64])(nil)
