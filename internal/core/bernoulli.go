package core

import (
	"cmp"
	"fmt"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// Sampler is the common contract of all partition samplers: values are fed
// one at a time (or in runs of equal values) and Finalize yields the
// self-describing compact Sample.
//
// FeedN(v, n) is statistically identical to calling Feed(v) n times but lets
// the implementations use binomial and skip shortcuts so that merging never
// needs to expand a compact histogram into a bag (paper §4.1).
type Sampler[V cmp.Ordered] interface {
	// Feed processes the next arriving data element.
	Feed(v V)
	// FeedN processes a run of n consecutive arrivals of the same value.
	FeedN(v V, n int64)
	// Seen returns the number of data elements processed so far.
	Seen() int64
	// Finalize converts the in-progress state into a Sample. The sampler
	// must not be fed after Finalize.
	Finalize() (*Sample[V], error)
}

// FeedAll feeds vals to s in order, as that many Feed calls would. It is the
// one way a batch of rows enters a sampler: a sampler with a bulk FeedAll of
// its own (HR) takes the whole slice, any other is fed a value at a time.
func FeedAll[V cmp.Ordered](s Sampler[V], vals []V) {
	if bulk, ok := s.(interface{ FeedAll([]V) }); ok {
		bulk.FeedAll(vals)
		return
	}
	for _, v := range vals {
		s.Feed(v)
	}
}

// BernoulliSampler draws a plain Bern(q) sample (paper §3.1): every arriving
// element is included independently with probability q. The sample is kept
// in compact form. The footprint is NOT bounded a priori — this primitive
// underlies Algorithm SB and the phase-2 machinery of Algorithm HB.
type BernoulliSampler[V cmp.Ordered] struct {
	cfg       Config
	q         float64
	hist      *histogram.Histogram[V]
	seen      int64
	src       randx.Source
	finalized bool
	o         samplerObs
}

// Instrument routes the sampler's metrics into reg. Call it before the
// first Feed; a nil registry leaves the sampler uninstrumented.
func (b *BernoulliSampler[V]) Instrument(reg *obs.Registry) {
	b.o = newSamplerObs(reg, "core.sb")
}

// NewBernoulli returns a Bern(q) sampler. It panics if q is outside [0, 1].
func NewBernoulli[V cmp.Ordered](cfg Config, q float64, src randx.Source) *BernoulliSampler[V] {
	cfg = cfg.normalized()
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("core: NewBernoulli with q = %v outside [0,1]", q))
	}
	return &BernoulliSampler[V]{
		cfg:  cfg,
		q:    q,
		hist: histogram.New[V](cfg.SizeModel),
		src:  src,
	}
}

// Q returns the sampling rate.
func (b *BernoulliSampler[V]) Q() float64 { return b.q }

// Seen returns the number of elements processed.
func (b *BernoulliSampler[V]) Seen() int64 { return b.seen }

// SampleSize returns the current number of sampled elements.
func (b *BernoulliSampler[V]) SampleSize() int64 { return b.hist.Size() }

// Feed processes one arriving element.
func (b *BernoulliSampler[V]) Feed(v V) { b.FeedN(v, 1) }

// FeedN processes a run of n equal values with a single binomial draw.
func (b *BernoulliSampler[V]) FeedN(v V, n int64) {
	if b.finalized {
		panic("core: BernoulliSampler fed after Finalize")
	}
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	b.o.countItems(n)
	b.seen += n
	if m := randx.Binomial(b.src, n, b.q); m > 0 {
		b.hist.Insert(v, m)
		b.o.accepts.Add(m)
	}
}

// Finalize returns the Bern(q) sample of everything fed.
func (b *BernoulliSampler[V]) Finalize() (*Sample[V], error) {
	if b.finalized {
		return nil, fmt.Errorf("core: BernoulliSampler already finalized")
	}
	b.finalized = true
	out := &Sample[V]{
		Kind:       BernoulliKind,
		Hist:       b.hist,
		ParentSize: b.seen,
		Q:          b.q,
		Config:     b.cfg,
	}
	b.o.finalize(out.Size(), out.Footprint())
	return out, nil
}

// SB is Algorithm SB, the paper's "stratified Bernoulli" benchmark scheme
// (§5): sample every partition at one fixed rate and union the results. It
// is simply a named BernoulliSampler; the interesting part is SBMerge.
type SB[V cmp.Ordered] struct {
	BernoulliSampler[V]
}

// NewSB returns an Algorithm SB sampler at the fixed rate q.
func NewSB[V cmp.Ordered](cfg Config, q float64, src randx.Source) *SB[V] {
	return &SB[V]{*NewBernoulli[V](cfg, q, src)}
}

// SBMerge unions two Bernoulli samples of disjoint partitions. When the
// rates are equal the union is itself a Bern(q) sample of the union of the
// partitions (paper §3.1); when they differ, the higher-rate sample is first
// thinned with purgeBernoulli to equalize the rates (paper §4.1, last
// paragraph). The inputs are consumed.
func SBMerge[V cmp.Ordered](s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
	if s1.Kind != BernoulliKind || s2.Kind != BernoulliKind {
		return nil, fmt.Errorf("core: SBMerge requires two Bernoulli samples, got %s and %s",
			s1.Kind, s2.Kind)
	}
	q := s1.Q
	if s2.Q < q {
		q = s2.Q
	}
	if s1.Q > q {
		PurgeBernoulli(s1.Hist, q/s1.Q, src)
	}
	if s2.Q > q {
		PurgeBernoulli(s2.Hist, q/s2.Q, src)
	}
	s1.Hist.Join(s2.Hist)
	return &Sample[V]{
		Kind:       BernoulliKind,
		Hist:       s1.Hist,
		ParentSize: s1.ParentSize + s2.ParentSize,
		Q:          q,
		Config:     s1.Config,
	}, nil
}

var _ Sampler[int64] = (*BernoulliSampler[int64])(nil)
