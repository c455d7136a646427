package core

import (
	"cmp"
	"fmt"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// Phase identifies the internal state of a hybrid sampler.
type Phase uint8

const (
	// PhaseExact: the sample is the exact compact histogram of everything
	// seen (phase 1 in the paper's Figures 2 and 7).
	PhaseExact Phase = iota + 1
	// PhaseBernoulli: Algorithm HB is Bernoulli-sampling at rate q (phase 2
	// of Figure 2).
	PhaseBernoulli
	// PhaseReservoir: reservoir mode (phase 3 of Figure 2; phase 2 of
	// Figure 7).
	PhaseReservoir
)

// String returns the phase name.
func (p Phase) String() string {
	switch p {
	case PhaseExact:
		return "exact"
	case PhaseBernoulli:
		return "bernoulli"
	case PhaseReservoir:
		return "reservoir"
	default:
		return fmt.Sprintf("Phase(%d)", uint8(p))
	}
}

// HB implements Algorithm HB, the paper's hybrid Bernoulli sampler
// (§4.1, Figure 2). It attempts to keep an exact compact histogram of the
// partition; if the footprint would exceed F it switches to Bernoulli
// sampling at the rate q = q(N, p, n_F) of equation (1), chosen so that with
// probability at least 1−p the sample never exceeds n_F values; in the
// unlikely event that it does, it falls back to reservoir sampling with
// reservoir size n_F. The footprint therefore never exceeds F, and the final
// sample is uniform: an exact histogram, an (essentially) Bernoulli sample,
// or a simple random sample of size n_F.
//
// The expected partition size N must be supplied up front — the paper's one
// requirement for Algorithm HB (§4.3). If fewer elements actually arrive the
// sample is smaller than intended (q was set too low) but remains uniform;
// if more arrive, the reservoir fallback still bounds the footprint.
type HB[V cmp.Ordered] struct {
	cfg       Config
	nf        int64
	expectedN int64
	q         float64
	src       randx.Source

	phase     Phase
	hist      *histogram.Histogram[V] // compact form: exact in phase 1, purged-unexpanded later
	bag       []V                     // expanded form, once a phase-2/3 insertion occurs
	expanded  bool
	seen      int64 // i: number of elements processed
	next      int64 // n: 1-based index of next reservoir insertion (phase 3)
	rk        int64 // reservoir capacity in phase 3 (n_F, except when a merge seeds the sampler from a smaller reservoir sample)
	sk        *randx.Skipper
	finalized bool
	o         samplerObs
}

// Instrument routes the sampler's metrics into reg. Call it before the
// first Feed; a nil registry leaves the sampler uninstrumented.
func (s *HB[V]) Instrument(reg *obs.Registry) {
	s.o = newSamplerObs(reg, "core.hb", true, true)
}

// NewHB returns an Algorithm HB sampler for a partition of expected size
// expectedN. It panics on invalid configuration or expectedN < 1.
func NewHB[V cmp.Ordered](cfg Config, expectedN int64, src randx.Source) *HB[V] {
	cfg = cfg.normalized()
	if expectedN < 1 {
		panic(fmt.Sprintf("core: NewHB with expectedN = %d < 1", expectedN))
	}
	return &HB[V]{
		cfg:       cfg,
		nf:        cfg.NF(),
		expectedN: expectedN,
		q:         QApprox(expectedN, cfg.ExceedProb, cfg.NF()),
		src:       src,
		phase:     PhaseExact,
		hist:      histogram.New[V](cfg.SizeModel),
	}
}

// Phase returns the sampler's current phase.
func (s *HB[V]) Phase() Phase { return s.phase }

// Q returns the phase-2 Bernoulli rate chosen from equation (1).
func (s *HB[V]) Q() float64 { return s.q }

// NF returns the sample-size bound n_F.
func (s *HB[V]) NF() int64 { return s.nf }

// Seen returns the number of elements processed.
func (s *HB[V]) Seen() int64 { return s.seen }

// SampleSize returns the current number of sampled data elements.
func (s *HB[V]) SampleSize() int64 {
	if s.expanded {
		return int64(len(s.bag))
	}
	return s.hist.Size()
}

// CurrentFootprint returns the byte footprint of the in-progress sample
// (compact histogram bytes, or bag values at ValueBytes each once expanded).
// Algorithm HB guarantees it never exceeds FootprintBytes.
func (s *HB[V]) CurrentFootprint() int64 {
	if s.expanded {
		return int64(len(s.bag)) * s.cfg.SizeModel.ValueBytes
	}
	return s.hist.Footprint()
}

// Feed processes the next arriving data element (Figure 2 executed once).
func (s *HB[V]) Feed(v V) { s.FeedN(v, 1) }

// FeedN processes a run of n equal values. It is statistically identical to
// n Feed calls but uses binomial and skip shortcuts away from the phase
// boundaries, which is what makes merge-by-refeeding cheap (no expansion of
// compact samples, paper Figure 6 line 3).
func (s *HB[V]) FeedN(v V, n int64) {
	if s.finalized {
		panic("core: HB sampler fed after Finalize")
	}
	if n < 1 {
		panic(fmt.Sprintf("core: FeedN with n = %d < 1", n))
	}
	s.o.countItems(n)
	for n > 0 {
		switch s.phase {
		case PhaseExact:
			n = s.feedExact(v, n)
		case PhaseBernoulli:
			n = s.feedBernoulli(v, n)
		case PhaseReservoir:
			n = s.feedReservoir(v, n)
		}
	}
}

// feedExact runs phase 1 until the run is exhausted or a phase transition
// occurs; it returns the number of unprocessed elements of the run.
func (s *HB[V]) feedExact(v V, n int64) int64 {
	for n > 0 {
		// Leave phase 1 BEFORE an insert could push the footprint past F —
		// this is what makes the a priori bound exact even when F is not
		// aligned to the representation's byte increments.
		if !s.hist.InsertWithin(v, s.cfg.FootprintBytes) {
			s.leaveExact()
			return n
		}
		s.seen++
		n--
		// The footprint only changes when a value is new or turns from
		// singleton into pair; once this value's count is >= 2, the rest of
		// the run cannot trigger a transition and can be inserted at once.
		if n > 0 && s.hist.Count(v) >= 2 {
			s.hist.Insert(v, n)
			s.seen += n
			return 0
		}
	}
	return 0
}

// leaveExact performs the phase-1 exit of Figure 2 (lines 3–10): take the
// Bernoulli subsample that phase 2 would need; if even that is too large,
// reservoir-subsample to n_F and enter phase 3.
func (s *HB[V]) leaveExact() {
	before := s.hist.Size()
	PurgeBernoulli(s.hist, s.q, s.src)
	s.o.purge("bernoulli", before, s.hist.Size())
	if s.hist.Size() < s.nf {
		s.phase = PhaseBernoulli
		s.o.transition()
		return
	}
	before = s.hist.Size()
	PurgeReservoir(s.hist, s.nf, s.src)
	s.o.purge("reservoir", before, s.hist.Size())
	s.enterReservoir(s.nf)
	s.o.transition()
}

// enterReservoir switches to phase 3 with reservoir capacity k and schedules
// the next insertion.
func (s *HB[V]) enterReservoir(k int64) {
	s.phase = PhaseReservoir
	s.rk = k
	s.sk = randx.NewSkipper(s.src, k)
	s.next = s.seen + 1 + s.sk.Skip(s.seen)
}

// feedBernoulli runs phase 2 (Figure 2 lines 12–20) over a run of n equal
// values, returning the number left unprocessed after a phase transition.
func (s *HB[V]) feedBernoulli(v V, n int64) int64 {
	// Fast path: if even accepting every element cannot reach n_F, a single
	// binomial draw is exact and no transition can occur mid-run.
	if s.SampleSize()+n < s.nf {
		if m := randx.Binomial(s.src, n, s.q); m > 0 {
			s.ensureExpanded()
			for j := int64(0); j < m; j++ {
				s.bag = append(s.bag, v)
			}
			s.o.accepts.Add(m)
		}
		s.seen += n
		return 0
	}
	// Boundary path: element-by-element, watching for the n_F transition.
	for n > 0 {
		s.seen++
		n--
		if randx.Float64(s.src) <= s.q {
			s.ensureExpanded()
			s.bag = append(s.bag, v)
			s.o.accepts.Inc()
			if int64(len(s.bag)) >= s.nf {
				s.enterReservoir(s.nf)
				s.o.transition()
				return n
			}
		}
	}
	return 0
}

// feedReservoir runs phase 3 (Figure 2 lines 21–27) over a run of n equal
// values using skips; it always consumes the full run.
func (s *HB[V]) feedReservoir(v V, n int64) int64 {
	end := s.seen + n
	for s.next <= end {
		s.ensureExpanded()
		// removeRandomVictim + insert == overwrite a uniform slot.
		s.bag[randx.Intn(s.src, len(s.bag))] = v
		s.o.inserts.Inc()
		s.next = s.next + 1 + s.sk.Skip(s.next)
	}
	s.seen = end
	return 0
}

// ensureExpanded lazily converts the purged compact sample into a bag of
// values at the first phase-2/3 insertion (Figure 2 lines 14–15 and 23).
func (s *HB[V]) ensureExpanded() {
	if s.expanded {
		return
	}
	s.bag = s.hist.Expand()
	s.hist = nil
	s.expanded = true
}

// Finalize converts the sample back to compact histogram form and returns
// it. Depending on the terminating phase the sample is an exact histogram of
// the partition, a Bernoulli(q) sample, or a reservoir sample of size n_F.
func (s *HB[V]) Finalize() (*Sample[V], error) {
	if s.finalized {
		return nil, fmt.Errorf("core: HB sampler already finalized")
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
	switch s.phase {
	case PhaseExact:
		out.Kind = Exhaustive
		out.Q = 1
	case PhaseBernoulli:
		out.Kind = BernoulliKind
		out.Q = s.q
	case PhaseReservoir:
		out.Kind = ReservoirKind
	}
	s.o.finalize(out.Size(), out.Footprint())
	return out, nil
}

var _ Sampler[int64] = (*HB[int64])(nil)
