package core

import (
	"cmp"
	"fmt"
	"slices"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// HR implements Algorithm HR, the paper's hybrid reservoir sampler
// (§4.2, Figure 7). Like Algorithm HB it starts by maintaining the exact
// compact histogram; when the footprint would exceed F it switches to
// reservoir sampling with reservoir size n_F. Unlike Algorithm HB it needs
// no advance knowledge of the partition size, and its final sample size is
// stable (exactly n_F once the reservoir phase is entered), at the cost of
// more expensive merges (HRMerge's hypergeometric split).
//
// A subtlety reproduced from Figure 7: on the phase switch the sample is NOT
// immediately cut down to n_F. The exact histogram is retained and the
// reservoir subsample (purgeReservoir) is taken lazily at the first
// reservoir insertion — or at Finalize if no insertion ever happens. Both
// orderings yield the same distribution because the skip lengths are
// independent of the purge.
type HR[V cmp.Ordered] struct {
	cfg Config
	nf  int64
	src randx.Source

	phase     Phase
	hist      *histogram.Histogram[V] // exact histogram until purged+expanded
	bag       []V
	purged    bool
	expanded  bool
	seen      int64
	next      int64 // 1-based index of next reservoir insertion
	rk        int64 // reservoir capacity (n_F, except when a merge seeds the sampler from a smaller reservoir sample)
	sk        *randx.Skipper
	finalized bool
	o         samplerObs
}

// Instrument routes the sampler's metrics into reg. Call it before the
// first Feed; a nil registry leaves the sampler uninstrumented.
func (s *HR[V]) Instrument(reg *obs.Registry) {
	s.o = newSamplerObs(reg, "core.hr")
}

// NewHR returns an Algorithm HR sampler. It panics on invalid configuration.
// The configuration must satisfy CountBytes <= ValueBytes (true of the
// default model), which guarantees that at least n_F elements have arrived
// by the time the footprint bound is hit, so the reservoir is well defined.
func NewHR[V cmp.Ordered](cfg Config, src randx.Source) *HR[V] {
	cfg = cfg.normalized()
	if cfg.SizeModel.CountBytes > cfg.SizeModel.ValueBytes {
		panic(fmt.Sprintf("core: NewHR requires CountBytes (%d) <= ValueBytes (%d)",
			cfg.SizeModel.CountBytes, cfg.SizeModel.ValueBytes))
	}
	return &HR[V]{
		cfg:   cfg,
		nf:    cfg.NF(),
		src:   src,
		phase: PhaseExact,
		hist:  histogram.New[V](cfg.SizeModel),
	}
}

// Phase returns the sampler's current phase (PhaseExact or PhaseReservoir).
func (s *HR[V]) Phase() Phase { return s.phase }

// NF returns the reservoir size bound n_F.
func (s *HR[V]) NF() int64 { return s.nf }

// Seen returns the number of elements processed.
func (s *HR[V]) Seen() int64 { return s.seen }

// SampleSize returns the current number of sampled data elements. Between
// the phase switch and the lazy purge this may still exceed n_F.
func (s *HR[V]) SampleSize() int64 {
	if s.expanded {
		return int64(len(s.bag))
	}
	return s.hist.Size()
}

// CurrentFootprint returns the byte footprint of the in-progress sample.
// Between the phase switch and the lazy purge this may still equal F (the
// retained exact histogram); it never exceeds F.
func (s *HR[V]) CurrentFootprint() int64 {
	if s.expanded {
		return int64(len(s.bag)) * s.cfg.SizeModel.ValueBytes
	}
	return s.hist.Footprint()
}

// Feed processes the next arriving data element (Figure 7 executed once).
func (s *HR[V]) Feed(v V) { s.FeedN(v, 1) }

// FeedN processes a run of n equal values with skip shortcuts.
func (s *HR[V]) FeedN(v V, n int64) {
	if s.finalized {
		panic("core: HR sampler fed after Finalize")
	}
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	s.o.countItems(n)
	if s.phase == PhaseExact {
		if n = s.feedExact(v, n); n == 0 {
			return
		}
	}
	s.feedReservoir(s.seen+n, n, func(int64) V { return v })
}

// FeedAll processes vals in order: the same draws, in the same order, as one
// Feed per value, but with per-value work only where Figure 7 has some. The
// exact phase costs one index lookup per value; the reservoir phase steps
// from one scheduled insertion to the next and never visits the values the
// skips pass over.
func (s *HR[V]) FeedAll(vals []V) {
	if s.finalized {
		panic("core: HR sampler fed after Finalize")
	}
	var counted int64
	if s.phase == PhaseExact {
		if s.seen == 0 {
			// The exact phase ends by n_F distinct values. A first batch is
			// seldom the last, so reserve for twice it, but never past n_F:
			// the index grows by doubling anyway, and what is reserved stays
			// in proportion to the rows in hand, whatever n_F a dataset sets.
			s.hist = histogram.NewSized[V](s.cfg.SizeModel, int(min(s.nf, 2*int64(len(vals)))))
		}
		i := 0
		for i < len(vals) && s.hist.InsertWithin(vals[i], s.cfg.FootprintBytes) {
			i++
		}
		s.seen += int64(i)
		if i == len(vals) {
			s.o.countItems(int64(i))
			return
		}
		// vals[i] found the bound, as in feedExact, and counts before the switch.
		s.o.countItems(int64(i + 1))
		s.leaveExact()
		vals, counted = vals[i:], 1
	}
	base := s.seen
	s.feedReservoir(base+int64(len(vals)), counted, func(i int64) V { return vals[i-base-1] })
}

// feedExact is phase 1 of Figure 7; returns the unprocessed remainder of the
// run after a phase transition.
func (s *HR[V]) feedExact(v V, n int64) int64 {
	for n > 0 {
		// Switch to reservoir mode BEFORE an insert could push the
		// footprint past F (see HB.feedExact).
		if !s.hist.InsertWithin(v, s.cfg.FootprintBytes) {
			s.leaveExact()
			return n
		}
		s.seen++
		n--
		// Same bulk shortcut as Algorithm HB: once v is a pair, further
		// copies cannot change the footprint.
		if n > 0 && s.hist.Count(v) >= 2 {
			s.hist.Insert(v, n)
			s.seen += n
			return 0
		}
	}
	return 0
}

// leaveExact is Figure 7's phase switch, taken on the element that would
// push the footprint past F: that element is the reservoir phase's first.
func (s *HR[V]) leaveExact() {
	s.enterReservoir(s.nf)
	s.o.transition()
}

// enterReservoir switches to reservoir mode with capacity k and schedules
// the next insertion.
func (s *HR[V]) enterReservoir(k int64) {
	s.phase = PhaseReservoir
	s.rk = k
	s.sk = randx.NewSkipper(s.src, k)
	s.next = s.seen + 1 + s.sk.Skip(s.seen)
}

// feedReservoir is phase 2 of Figure 7 over stream elements seen+1 … end,
// at(i) being element i. It steps from one scheduled insertion to the next
// and never visits the elements the skips pass over. The first counted of
// these elements are in the items counter already; the rest are counted as
// one Feed each would count them, so the lazy purge flushes the count
// through the element that triggers it.
func (s *HR[V]) feedReservoir(end, counted int64, at func(i int64) V) {
	base := s.seen
	var inserts int64
	for s.next <= end {
		if !s.expanded {
			s.seen = s.next - 1
			if d := s.next - base - counted; d > 0 {
				s.o.countItems(d)
				counted += d
			}
			s.ensureReady()
		}
		s.bag[randx.Intn(s.src, len(s.bag))] = at(s.next)
		inserts++
		s.next = s.next + 1 + s.sk.Skip(s.next)
	}
	if d := end - base - counted; d > 0 {
		s.o.countItems(d)
	}
	s.o.inserts.Add(inserts)
	s.seen = end
}

// ensureReady performs the lazy purge-to-n_F and expansion of Figure 7
// lines 9–11 at the first reservoir insertion.
func (s *HR[V]) ensureReady() {
	if s.expanded {
		return
	}
	if !s.purged {
		before := s.hist.Size()
		PurgeReservoir(s.hist, s.rk, s.src)
		s.o.purge("reservoir", before, s.hist.Size())
		s.purged = true
	}
	s.bag = s.hist.Expand()
	s.hist = nil
	s.expanded = true
}

// Finalize converts the sample to compact form and returns it: the exact
// partition histogram if the footprint bound was never reached, otherwise a
// simple random sample of n_F elements.
func (s *HR[V]) Finalize() (*Sample[V], error) {
	if s.finalized {
		return nil, fmt.Errorf("core: HR sampler already finalized")
	}
	s.finalized = true
	out := &Sample[V]{
		ParentSize: s.seen,
		Config:     s.cfg,
	}
	switch {
	case s.phase == PhaseExact:
		out.Kind = Exhaustive
		out.Q = 1
		out.Hist = s.hist
	case s.expanded:
		out.Kind = ReservoirKind
		out.Hist = bagHistogram(s.cfg.SizeModel, s.bag)
		s.bag = nil
	default:
		// Phase switch happened but no insertion followed: apply the lazy
		// purge now so the bound holds.
		if !s.purged {
			before := s.hist.Size()
			PurgeReservoir(s.hist, s.rk, s.src)
			s.o.purge("reservoir", before, s.hist.Size())
		}
		out.Kind = ReservoirKind
		out.Hist = s.hist
	}
	s.hist = nil
	s.o.finalize(out.Size(), out.Footprint())
	return out, nil
}

// bagHistogram compacts a finished reservoir: the bag is sorted and
// run-length coded, so no index is built and the entries come out in the
// value order a store keeps — the store's sort finds nothing to do.
func bagHistogram[V cmp.Ordered](model histogram.SizeModel, bag []V) *histogram.Histogram[V] {
	slices.Sort(bag)
	distinct := 0
	for i, v := range bag {
		if i == 0 || v != bag[i-1] {
			distinct++
		}
	}
	entries := make([]histogram.Entry[V], 0, distinct)
	for i, v := range bag {
		if i == 0 || v != bag[i-1] {
			entries = append(entries, histogram.Entry[V]{Value: v, Count: 1})
		} else {
			entries[len(entries)-1].Count++
		}
	}
	return histogram.FromEntries(model, entries)
}

var _ Sampler[int64] = (*HR[int64])(nil)
