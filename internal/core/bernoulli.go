package core

import (
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
type Sampler[V comparable] interface {
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
func FeedAll[V comparable](s Sampler[V], vals []V) {
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
type BernoulliSampler[V comparable] struct {
	cfg       Config
	q         float64
	hist      *histogram.Histogram[V]
	seen      int64
	src       randx.Source
	finalized bool
	o         samplerObs
}

// Instrument routes the sampler's metrics and events into reg, labelled
// with the given partition ID (empty is fine). Call it before the first
// Feed; a nil registry leaves the sampler uninstrumented.
func (b *BernoulliSampler[V]) Instrument(reg *obs.Registry, partition string) {
	b.o = newSamplerObs(reg, "core.sb", partition)
}

// NewBernoulli returns a Bern(q) sampler. It panics if q is outside [0, 1].
func NewBernoulli[V comparable](cfg Config, q float64, src randx.Source) *BernoulliSampler[V] {
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
	b.o.finalize(out.Kind, b.seen, out.Size(), out.Footprint())
	return out, nil
}

// SB is Algorithm SB, the paper's "stratified Bernoulli" benchmark scheme
// (§5): sample every partition at one fixed rate and union the results. It
// is simply a named BernoulliSampler; the interesting part is SBMerge.
type SB[V comparable] struct {
	BernoulliSampler[V]
}

// NewSB returns an Algorithm SB sampler at the fixed rate q.
func NewSB[V comparable](cfg Config, q float64, src randx.Source) *SB[V] {
	return &SB[V]{*NewBernoulli[V](cfg, q, src)}
}

// SBMerge unions two Bernoulli samples of disjoint partitions. When the
// rates are equal the union is itself a Bern(q) sample of the union of the
// partitions (paper §3.1); when they differ, the higher-rate sample is first
// thinned with purgeBernoulli to equalize the rates (paper §4.1, last
// paragraph). The inputs are consumed.
func SBMerge[V comparable](s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
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

// ReservoirSampler maintains a classic size-k simple random sample without
// replacement (paper §3.2), using Vitter skips between inclusions. It is the
// standalone primitive; Algorithms HB and HR embed the same machinery with
// their compact phase-1 front ends.
type ReservoirSampler[V comparable] struct {
	cfg       Config
	k         int64
	bag       []V
	seen      int64
	next      int64 // 1-based index of the next element to include
	sk        *randx.Skipper
	src       randx.Source
	finalized bool
}

// NewReservoir returns a reservoir sampler of capacity k. It panics if
// k < 1.
func NewReservoir[V comparable](cfg Config, k int64, src randx.Source) *ReservoirSampler[V] {
	cfg = cfg.normalized()
	if k < 1 {
		panic(fmt.Sprintf("core: NewReservoir with k = %d < 1", k))
	}
	return &ReservoirSampler[V]{
		cfg: cfg,
		k:   k,
		bag: make([]V, 0, k),
		src: src,
	}
}

// K returns the reservoir capacity.
func (r *ReservoirSampler[V]) K() int64 { return r.k }

// Seen returns the number of elements processed.
func (r *ReservoirSampler[V]) Seen() int64 { return r.seen }

// SampleSize returns the current reservoir occupancy.
func (r *ReservoirSampler[V]) SampleSize() int64 { return int64(len(r.bag)) }

// Feed processes one arriving element.
func (r *ReservoirSampler[V]) Feed(v V) { r.FeedN(v, 1) }

// FeedN processes a run of n equal values, jumping between inclusions with
// Vitter skips so the cost is proportional to the number of inclusions.
func (r *ReservoirSampler[V]) FeedN(v V, n int64) {
	if r.finalized {
		panic("core: ReservoirSampler fed after Finalize")
	}
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	// Warm-up: the first k elements always enter the reservoir.
	for n > 0 && int64(len(r.bag)) < r.k {
		r.bag = append(r.bag, v)
		r.seen++
		n--
	}
	if n == 0 {
		return
	}
	if r.sk == nil {
		r.sk = randx.NewSkipper(r.src, r.k)
		r.next = r.seen + 1 + r.sk.Skip(r.seen)
	}
	end := r.seen + n
	for r.next <= end {
		r.bag[randx.Intn(r.src, len(r.bag))] = v
		r.next = r.next + 1 + r.sk.Skip(r.next)
	}
	r.seen = end
}

// Finalize returns the simple random sample collected so far. If the stream
// never exceeded the reservoir capacity the sample holds the whole partition
// and is reported as Exhaustive, which lets merges exploit it.
func (r *ReservoirSampler[V]) Finalize() (*Sample[V], error) {
	if r.finalized {
		return nil, fmt.Errorf("core: ReservoirSampler already finalized")
	}
	r.finalized = true
	s := &Sample[V]{
		Kind:       ReservoirKind,
		Hist:       histogram.FromBag(r.cfg.SizeModel, r.bag),
		ParentSize: r.seen,
		Config:     r.cfg,
	}
	if r.seen == int64(len(r.bag)) {
		s.Kind = Exhaustive
		s.Q = 1
	}
	return s, nil
}

var (
	_ Sampler[int64] = (*BernoulliSampler[int64])(nil)
	_ Sampler[int64] = (*ReservoirSampler[int64])(nil)
)
