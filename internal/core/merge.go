package core

import (
	"cmp"
	"fmt"
	"sync"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// mergeCompatible verifies that two samples were collected under the same
// footprint regime; merging across regimes has no defined semantics.
func mergeCompatible[V cmp.Ordered](s1, s2 *Sample[V]) error {
	if s1.Config.FootprintBytes != s2.Config.FootprintBytes {
		return fmt.Errorf("core: merge of samples with different footprints (%dB vs %dB)",
			s1.Config.FootprintBytes, s2.Config.FootprintBytes)
	}
	if s1.Config.SizeModel != s2.Config.SizeModel {
		return fmt.Errorf("core: merge of samples with different size models (%+v vs %+v)",
			s1.Config.SizeModel, s2.Config.SizeModel)
	}
	return nil
}

// HBMerge merges two samples produced by Algorithm HB from disjoint
// partitions (paper §4.1, Figure 6):
//
//   - if either sample is exhaustive, its values are simply re-fed (without
//     expansion) into an Algorithm HB sampler whose state is initialized
//     from the other sample;
//   - if either sample is a reservoir sample, HRMerge applies (the other
//     sample is viewed, conditionally on its size, as a simple random
//     sample);
//   - if both are Bernoulli samples, the rates are equalized to the rate
//     q(|D1|+|D2|, p, n_F) by Bernoulli subsampling and the compact
//     histograms are joined; in the unlikely event the join would exceed the
//     footprint bound, the union is cut down to a size-n_F reservoir sample.
//
// The result is a uniform sample of D1 ∪ D2. Inputs are consumed.
func HBMerge[V cmp.Ordered](s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
	if err := mergeCompatible(s1, s2); err != nil {
		return nil, err
	}
	cfg := s1.Config.normalized()
	nf := cfg.NF()

	// Lines 1–4: at least one exhaustive sample.
	if s1.Kind == Exhaustive || s2.Kind == Exhaustive {
		ex, other := s1, s2
		if ex.Kind != Exhaustive {
			ex, other = s2, s1
		} else if other.Kind == Exhaustive && other.Footprint() < ex.Footprint() {
			// Both exhaustive: re-feed the smaller one.
			ex, other = other, ex
		}
		switch other.Kind {
		case Exhaustive, BernoulliKind:
			if other.Kind == BernoulliKind && other.Size() >= nf {
				// A Bernoulli sample that already fills the bound cannot
				// accept further Bernoulli insertions; treat it as a
				// conditional simple random sample and use HRMerge.
				return hrMergeSRS(s1, s2, src)
			}
			hb := resumeHB(other, ex.ParentSize+other.ParentSize, src)
			ex.Hist.Each(func(v V, n int64) { hb.FeedN(v, n) })
			return hb.Finalize()
		case ReservoirKind:
			hr := resumeHR(other, src)
			ex.Hist.Each(func(v V, n int64) { hr.FeedN(v, n) })
			return hr.Finalize()
		default:
			return nil, fmt.Errorf("core: HBMerge with invalid kind %v", other.Kind)
		}
	}

	// Lines 5–7: at least one reservoir sample.
	if s1.Kind == ReservoirKind || s2.Kind == ReservoirKind {
		return hrMergeSRS(s1, s2, src)
	}

	// Lines 8–16: both Bernoulli samples.
	q := QApprox(s1.ParentSize+s2.ParentSize, cfg.ExceedProb, nf)
	if s1.Q > 0 {
		PurgeBernoulli(s1.Hist, q/s1.Q, src)
	}
	if s2.Q > 0 {
		PurgeBernoulli(s2.Hist, q/s2.Q, src)
	}
	if s1.Hist.JoinedFootprint(s2.Hist) < cfg.FootprintBytes {
		s1.Hist.Join(s2.Hist)
		return &Sample[V]{
			Kind:       BernoulliKind,
			Hist:       s1.Hist,
			ParentSize: s1.ParentSize + s2.ParentSize,
			Q:          q,
			Config:     cfg,
		}, nil
	}
	// Low-probability overflow (lines 14–16): reservoir-sample the union of
	// the two Bernoulli samples down to n_F. An SRS of n_F elements from a
	// Bern(q) sample of D1 ∪ D2 is an SRS of n_F elements from D1 ∪ D2.
	PurgeReservoir(s1.Hist, nf, src)
	bag := s1.Hist.Expand()
	bag = absorbIntoReservoir(bag, nf, s1.Hist.Size(), s2.Hist, src)
	return &Sample[V]{
		Kind:       ReservoirKind,
		Hist:       histogram.FromBag(cfg.SizeModel, bag),
		ParentSize: s1.ParentSize + s2.ParentSize,
		Config:     cfg,
	}, nil
}

// HRMerge merges two samples produced by Algorithm HR from disjoint
// partitions (paper §4.2, Figure 8):
//
//   - if either sample is exhaustive, its values are re-fed (without
//     expansion) into an Algorithm HR sampler initialized from the other
//     sample;
//   - otherwise both samples are (viewed as) simple random samples, and a
//     merged simple random sample of size k = min(|S1|, |S2|) is formed by
//     drawing L from the hypergeometric distribution of equation (2),
//     reservoir-subsampling S1 to L and S2 to k−L elements, and joining
//     (Theorem 1 asserts uniformity of the result).
//
// The result is a uniform sample of D1 ∪ D2. Inputs are consumed.
func HRMerge[V cmp.Ordered](s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
	if err := mergeCompatible(s1, s2); err != nil {
		return nil, err
	}
	// Lines 1–4: at least one exhaustive sample.
	if s1.Kind == Exhaustive || s2.Kind == Exhaustive {
		ex, other := s1, s2
		if ex.Kind != Exhaustive {
			ex, other = s2, s1
		} else if other.Kind == Exhaustive && other.Footprint() < ex.Footprint() {
			ex, other = other, ex
		}
		hr := resumeHR(other, src)
		ex.Hist.Each(func(v V, n int64) { hr.FeedN(v, n) })
		return hr.Finalize()
	}
	// Lines 5–12: both are (conditionally) simple random samples.
	return hrMergeSRS(s1, s2, src)
}

// hrMergeSRS implements lines 5–12 of Figure 8 for two non-exhaustive
// samples, each viewed as a simple random sample of its realized size.
func hrMergeSRS[V cmp.Ordered](s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
	k := s1.Size()
	if s2.Size() < k {
		k = s2.Size()
	}
	cfg := s1.Config.normalized()
	out := &Sample[V]{
		Kind:       ReservoirKind,
		ParentSize: s1.ParentSize + s2.ParentSize,
		Config:     cfg,
	}
	if k == 0 {
		// Degenerate: one side sampled nothing; the only uniform sample we
		// can certify is the empty one.
		out.Hist = histogram.New[V](cfg.SizeModel)
		return out, nil
	}
	// L ~ Hypergeometric(|D1|, |D2|, k), paper equation (2).
	l := randx.Hypergeometric(src, s1.ParentSize, s2.ParentSize, k)
	PurgeReservoir(s1.Hist, l, src)
	PurgeReservoir(s2.Hist, k-l, src)
	s1.Hist.Join(s2.Hist)
	out.Hist = s1.Hist
	return out, nil
}

// resumeHB builds an Algorithm HB sampler whose state continues from a
// previously finalized sample, as HBMerge line 3 requires ("Algorithm HB is
// appropriately initialized to be in phase 1, 2, or 3").
func resumeHB[V cmp.Ordered](s *Sample[V], expectedN int64, src randx.Source) *HB[V] {
	cfg := s.Config.normalized()
	hb := &HB[V]{
		cfg:       cfg,
		nf:        cfg.NF(),
		expectedN: expectedN,
		src:       src,
		hist:      s.Hist,
		seen:      s.ParentSize,
	}
	switch s.Kind {
	case Exhaustive:
		hb.phase = PhaseExact
		hb.q = QApprox(expectedN, cfg.ExceedProb, cfg.NF())
	case BernoulliKind:
		hb.phase = PhaseBernoulli
		hb.q = s.Q
	case ReservoirKind:
		k := s.Size()
		if k < 1 {
			k = 1 // degenerate; nothing will ever be inserted anyway
		}
		hb.enterReservoir(k)
	}
	return hb
}

// resumeHR builds an Algorithm HR sampler whose state continues from a
// previously finalized sample (HRMerge line 3). Non-exhaustive samples enter
// reservoir mode with capacity equal to their realized size, so the merged
// sample size matches HRMerge's k = min(...) semantics when one input is
// exhaustive: the reservoir side's size is preserved.
func resumeHR[V cmp.Ordered](s *Sample[V], src randx.Source) *HR[V] {
	cfg := s.Config.normalized()
	hr := &HR[V]{
		cfg:   cfg,
		nf:    cfg.NF(),
		src:   src,
		hist:  s.Hist,
		seen:  s.ParentSize,
		phase: PhaseExact,
	}
	if s.Kind != Exhaustive {
		k := s.Size()
		if k < 1 {
			k = 1
		}
		hr.purged = true // the sample is already a bounded SRS
		hr.enterReservoir(k)
	}
	return hr
}

// absorbIntoReservoir streams the elements of h into an existing reservoir
// bag that currently holds a simple random sample of the first t0 stream
// elements, maintaining capacity k. It returns the updated bag. This is the
// "stream in the values from S2" step of HBMerge lines 15–16, done per
// (value, count) pair without expanding h.
func absorbIntoReservoir[V cmp.Ordered](bag []V, k, t0 int64, h *histogram.Histogram[V], src randx.Source) []V {
	t := t0
	var sk *randx.Skipper
	var next int64
	h.Each(func(v V, cnt int64) {
		// Warm-up: fill the reservoir before skips apply.
		for cnt > 0 && int64(len(bag)) < k {
			bag = append(bag, v)
			t++
			cnt--
		}
		if cnt == 0 {
			return
		}
		if sk == nil {
			sk = randx.NewSkipper(src, k)
			next = t + 1 + sk.Skip(t)
		}
		end := t + cnt
		for next <= end {
			bag[randx.Intn(src, len(bag))] = v
			next = next + 1 + sk.Skip(next)
		}
		t = end
	})
	return bag
}

// MergeFunc is the signature shared by the pairwise merges: HBMerge, HRMerge
// and SBMerge.
type MergeFunc[V cmp.Ordered] func(s1, s2 *Sample[V], src randx.Source) (*Sample[V], error)

// MergeSerial folds the samples left-to-right with repeated pairwise merges:
// ((S1 ⊕ S2) ⊕ S3) ⊕ ... — the "sequence of pairwise merges (serially)" of
// the paper's experiments. Inputs are consumed. It returns an error on an
// empty input.
func MergeSerial[V cmp.Ordered](samples []*Sample[V], merge MergeFunc[V], src randx.Source) (*Sample[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: MergeSerial with no samples")
	}
	acc := samples[0]
	for _, s := range samples[1:] {
		var err error
		acc, err = merge(acc, s, src)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MergeTree combines the samples with a balanced binary tree of pairwise
// merges — the shape the paper's §4.2 alias-table discussion assumes (all
// merges at one level see identically-sized inputs). Inputs are consumed.
//
// Randomness is assigned per tree node: when src is a *randx.RNG, every pair
// of every level draws from an independent stream split off src in tree
// position order (level by level, left to right). The assignment depends only
// on the tree shape — never on execution order — so MergeTreeParallel
// produces byte-identical output for the same seed. Foreign Source
// implementations cannot be split; all merges then share src sequentially.
func MergeTree[V cmp.Ordered](samples []*Sample[V], merge MergeFunc[V], src randx.Source) (*Sample[V], error) {
	return MergeTreeParallel(samples, merge, src, 1)
}

// MergeTreeParallel is MergeTree with every level's pairwise merges executed
// concurrently (up to parallelism goroutines; 0 selects one per pair). The
// merges within a level are independent — the parallelism the paper's
// architecture calls for on the merge path as well as the sampling path.
// Because randomness is pre-assigned per tree position (see MergeTree), the
// result is byte-identical to the sequential MergeTree for the same seed,
// regardless of parallelism or scheduling. A foreign (non-*randx.RNG) source
// cannot be split across goroutines; the tree then runs sequentially on the
// shared stream. Inputs are consumed.
func MergeTreeParallel[V cmp.Ordered](samples []*Sample[V], merge MergeFunc[V], src randx.Source, parallelism int) (*Sample[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: MergeTree with no samples")
	}
	rng, splittable := src.(*randx.RNG)
	if !splittable {
		// A shared foreign stream admits no deterministic partition across
		// goroutines; run the tree sequentially on it.
		parallelism = 1
	}
	level := samples
	for len(level) > 1 {
		pairs := len(level) / 2
		next := make([]*Sample[V], (len(level)+1)/2)
		errs := make([]error, pairs)
		// Seed-per-node: one stream per pair, split in tree position order so
		// sequential and concurrent execution consume identical randomness.
		srcs := make([]randx.Source, pairs)
		for i := range srcs {
			if splittable {
				srcs[i] = rng.Split()
			} else {
				srcs[i] = src
			}
		}
		if workers := parallelismOrPairs(parallelism, pairs); workers == 1 {
			for i := 0; i < pairs; i++ {
				next[i], errs[i] = merge(level[2*i], level[2*i+1], srcs[i])
			}
		} else {
			sem := make(chan struct{}, workers)
			var wg sync.WaitGroup
			for i := 0; i < pairs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					next[i], errs[i] = merge(level[2*i], level[2*i+1], srcs[i])
				}(i)
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if len(level)%2 == 1 {
			next[pairs] = level[len(level)-1]
		}
		level = next
	}
	return level[0], nil
}

// parallelismOrPairs resolves the concurrency cap (at least 1: callers only
// reach here with pairs >= 1).
func parallelismOrPairs(parallelism, pairs int) int {
	if parallelism <= 0 || parallelism > pairs {
		return pairs
	}
	return parallelism
}
