package core

import (
	"fmt"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// MultiPurgeSampler is the Algorithm HB variant sketched (and dismissed) in
// the paper's §4.1: phase 3 is eliminated and instead, whenever the sample
// size reaches n_F during the Bernoulli phase, the sample is repeatedly
// purged by Bernoulli subsampling with ever-smaller rates, in the manner of
// concise sampling (but purging elements, not representation space, so the
// result stays uniform).
//
// The paper predicts — and our ablation benchmark confirms — that this
// variant is dominated by Algorithm HB: it is somewhat more expensive on
// average and its final sample sizes are smaller and less stable. It exists
// so the design choice is measurable.
type MultiPurgeSampler[V comparable] struct {
	cfg       Config
	nf        int64
	factor    float64
	q         float64
	src       randx.Source
	phase     Phase
	hist      *histogram.Histogram[V]
	bag       []V
	expanded  bool
	seen      int64
	purges    int64
	finalized bool
}

// NewMultiPurge returns the multiple-purge variant for a partition of
// expected size expectedN. factor (0 < factor < 1; 0 selects
// DefaultPurgeFactor) scales q at each overflow purge.
func NewMultiPurge[V comparable](cfg Config, expectedN int64, factor float64, src randx.Source) *MultiPurgeSampler[V] {
	cfg = cfg.normalized()
	if expectedN < 1 {
		panic(fmt.Sprintf("core: NewMultiPurge with expectedN = %d < 1", expectedN))
	}
	if factor == 0 {
		factor = DefaultPurgeFactor
	}
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("core: NewMultiPurge with factor %v outside (0,1)", factor))
	}
	return &MultiPurgeSampler[V]{
		cfg:    cfg,
		nf:     cfg.NF(),
		factor: factor,
		q:      QApprox(expectedN, cfg.ExceedProb, cfg.NF()),
		src:    src,
		phase:  PhaseExact,
		hist:   histogram.New[V](cfg.SizeModel),
	}
}

// Q returns the current Bernoulli rate.
func (s *MultiPurgeSampler[V]) Q() float64 { return s.q }

// Purges returns the number of overflow purges executed.
func (s *MultiPurgeSampler[V]) Purges() int64 { return s.purges }

// Seen returns the number of elements processed.
func (s *MultiPurgeSampler[V]) Seen() int64 { return s.seen }

// SampleSize returns the current number of sampled elements.
func (s *MultiPurgeSampler[V]) SampleSize() int64 {
	if s.expanded {
		return int64(len(s.bag))
	}
	return s.hist.Size()
}

// Feed processes the next arriving data element.
func (s *MultiPurgeSampler[V]) Feed(v V) { s.FeedN(v, 1) }

// FeedN processes a run of n equal values.
func (s *MultiPurgeSampler[V]) FeedN(v V, n int64) {
	if s.finalized {
		panic("core: MultiPurgeSampler fed after Finalize")
	}
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	for n > 0 {
		if s.phase == PhaseExact {
			n = s.feedExact(v, n)
		} else {
			n = s.feedBernoulli(v, n)
		}
	}
}

func (s *MultiPurgeSampler[V]) feedExact(v V, n int64) int64 {
	for n > 0 {
		if !s.hist.InsertWithin(v, s.cfg.FootprintBytes) {
			PurgeBernoulli(s.hist, s.q, s.src)
			s.phase = PhaseBernoulli
			s.shrinkToBound()
			return n
		}
		s.seen++
		n--
		if n > 0 && s.hist.Count(v) >= 2 {
			s.hist.Insert(v, n)
			s.seen += n
			return 0
		}
	}
	return 0
}

func (s *MultiPurgeSampler[V]) feedBernoulli(v V, n int64) int64 {
	if s.SampleSize()+n < s.nf {
		if m := randx.Binomial(s.src, n, s.q); m > 0 {
			s.ensureExpanded()
			for j := int64(0); j < m; j++ {
				s.bag = append(s.bag, v)
			}
		}
		s.seen += n
		return 0
	}
	for n > 0 {
		s.seen++
		n--
		if randx.Float64(s.src) <= s.q {
			s.ensureExpanded()
			s.bag = append(s.bag, v)
			if int64(len(s.bag)) >= s.nf {
				s.shrinkToBound()
			}
		}
	}
	return 0
}

// shrinkToBound repeatedly thins the sample with ever-smaller rates until
// the size drops below n_F again.
func (s *MultiPurgeSampler[V]) shrinkToBound() {
	for s.SampleSize() >= s.nf {
		newQ := s.q * s.factor
		ratio := newQ / s.q
		if s.expanded {
			kept := s.bag[:0]
			for _, v := range s.bag {
				if randx.Bernoulli(s.src, ratio) {
					kept = append(kept, v)
				}
			}
			s.bag = kept
		} else {
			PurgeBernoulli(s.hist, ratio, s.src)
		}
		s.q = newQ
		s.purges++
	}
}

func (s *MultiPurgeSampler[V]) ensureExpanded() {
	if s.expanded {
		return
	}
	s.bag = s.hist.Expand()
	s.hist = nil
	s.expanded = true
}

// Finalize returns the final (uniform, approximately Bernoulli) sample.
func (s *MultiPurgeSampler[V]) Finalize() (*Sample[V], error) {
	if s.finalized {
		return nil, fmt.Errorf("core: MultiPurgeSampler already finalized")
	}
	s.finalized = true
	var h *histogram.Histogram[V]
	if s.expanded {
		h = histogram.FromBag(s.cfg.SizeModel, s.bag)
		s.bag = nil
	} else {
		h = s.hist
		s.hist = nil
	}
	out := &Sample[V]{
		Hist:       h,
		ParentSize: s.seen,
		Config:     s.cfg,
	}
	if s.phase == PhaseExact {
		out.Kind = Exhaustive
		out.Q = 1
	} else {
		out.Kind = BernoulliKind
		out.Q = s.q
	}
	return out, nil
}

var _ Sampler[int64] = (*MultiPurgeSampler[int64])(nil)
