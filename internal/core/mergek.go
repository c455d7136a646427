package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// MergeK merges m samples of disjoint partitions — of any kind Algorithm HB or
// HR produces — into one uniform sample of their union in one pass, without
// mutating any input (DESIGN.md §9, layer 3). It is HRMerge and HBMerge at
// once, for m inputs:
//
//   - With any reservoir input it is HRMerge's lines 5–12: the result is a
//     simple random sample of size k, the smallest |Sᵢ| of a non-exhaustive
//     input. A Bernoulli input counts as a simple random sample of its
//     realised size (HBMerge lines 5–7); an exhaustive one as a simple random
//     sample of its whole partition, |Sᵢ| = |Dᵢ|, so it never limits k —
//     which is what re-feeding it (HRMerge lines 1–4) produces. (L₁, …, L_m),
//     the number of merged elements each partition contributes, is drawn from
//     the multivariate hypergeometric over the parent sizes |Dᵢ| as a chain of
//     conditional univariate draws, Lᵢ ~ Hypergeometric(|Dᵢ|, Σ_{j>i}|Dⱼ|,
//     k − Σ_{j<i}Lⱼ), and each Sᵢ is subsampled once to Lᵢ elements by
//     selection sampling over its (value, count) entries (selectSRS).
//   - With only Bernoulli and exhaustive inputs (an exhaustive sample is a
//     Bern(1) sample) it is HBMerge's lines 8–16: every input is thinned once
//     to one rate q — q = min(q(ΣNᵢ, p, n_F), minᵢ qᵢ) when any input is
//     Bernoulli, 1 when none is — and if the join of the thinned inputs
//     exceeds F, a simple random sample of n_F is taken from it.
//
// The survivors are joined once into a fresh histogram. Because the inputs are
// only read they may be shared (cached) samples; the result never aliases one
// — a single input comes back as a Clone.
//
// When src is a *randx.RNG input i draws from its own stream, split off src in
// input order (right after Lᵢ on the reservoir path), so up to parallelism
// goroutines (0 = one per input) work on the inputs concurrently and the
// result is byte-identical for any parallelism. A foreign Source cannot be
// split; the inputs are then walked sequentially on the shared stream. When
// ctx carries an obs span the two phases record merge_select and merge_join
// children; a done ctx is observed between them.
func MergeK[V comparable](ctx context.Context, samples []*Sample[V], src randx.Source, parallelism int) (*Sample[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: MergeK with no samples")
	}
	k, q := int64(math.MaxInt64), 1.0
	var parents int64
	reservoir, bernoulli := false, false
	for _, s := range samples {
		if err := mergeCompatible(samples[0], s); err != nil {
			return nil, err
		}
		parents += s.ParentSize
		switch s.Kind {
		case Exhaustive:
			continue
		case ReservoirKind:
			reservoir = true
		case BernoulliKind:
			bernoulli = true
			q = min(q, s.Q)
		}
		k = min(k, s.Size())
	}
	if len(samples) == 1 {
		return samples[0].Clone(), nil
	}
	cfg := samples[0].Config.normalized()
	nf := cfg.NF()
	if bernoulli && parents > 0 {
		q = min(q, QApprox(parents, cfg.ExceedProb, nf))
	}
	out := &Sample[V]{Kind: ReservoirKind, ParentSize: parents, Config: cfg}

	kept := make([][]histogram.Entry[V], len(samples))
	srcs := make([]randx.Source, len(samples))
	rng, splittable := src.(*randx.RNG)
	if !splittable {
		parallelism = 1
	}
	var buf []histogram.Entry[V]
	if reservoir {
		// Input i's survivors land in its own window of one shared buffer: at
		// most Lᵢ entries, and ΣLᵢ = k. (k = 0 — some input sampled nothing —
		// needs no special case: every window is empty and so is the merged
		// sample, the only uniform one that can be certified.)
		buf = make([]histogram.Entry[V], k)
	}
	rest, need, off := parents, k, int64(0)
	for i, s := range samples {
		if reservoir {
			rest -= s.ParentSize
			l := need // the last input takes what is left
			if i < len(samples)-1 {
				l = randx.Hypergeometric(src, s.ParentSize, rest, need)
			}
			need -= l
			kept[i] = buf[off : off : off+l]
			off += l
		}
		srcs[i] = src
		if splittable {
			srcs[i] = rng.Split()
		}
	}
	pick := func(i int) { kept[i] = selectSRS(samples[i].Hist, kept[i], srcs[i]) }
	if !reservoir {
		pick = func(i int) { kept[i] = thin(samples[i].Hist, q/samples[i].rate(), srcs[i]) }
	}

	parent := obs.SpanFromContext(ctx)
	workers := parallelismOrPairs(parallelism, len(samples))
	sp := parent.Start("merge_select")
	sp.SetValue("inputs", int64(len(samples)))
	if reservoir {
		sp.SetValue("k", k)
	}
	sp.SetValue("workers", int64(workers))
	if workers == 1 {
		for i := range samples {
			pick(i)
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					pick(i)
				}
			}()
		}
		for i := range samples {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	sp = parent.Start("merge_join")
	out.Hist = join(cfg.SizeModel, kept)
	switch {
	case reservoir: // the size-k SRS the draw made
	case out.Hist.Footprint() > cfg.FootprintBytes:
		// The low-probability overflow (HBMerge lines 14–16): an SRS of n_F
		// elements of a Bern(q) sample of the union is one of the union.
		srs := selectSRS(out.Hist, make([]histogram.Entry[V], 0, min(nf, out.Size())), src)
		out.Hist = histogram.FromEntries(cfg.SizeModel, srs)
	case q == 1:
		out.Kind, out.Q = Exhaustive, 1
	default:
		out.Kind, out.Q = BernoulliKind, q
	}
	sp.SetValue("distinct", int64(out.Hist.Distinct()))
	sp.End()
	return out, nil
}

// join sums the inputs' survivors into one fresh histogram, the paper's join
// over all of them at once.
func join[V comparable](model histogram.SizeModel, kept [][]histogram.Entry[V]) *histogram.Histogram[V] {
	distinct := 0
	for _, es := range kept {
		distinct += len(es)
	}
	h := histogram.NewSized[V](model, distinct)
	for _, es := range kept {
		for _, e := range es {
			h.Insert(e.Value, e.Count)
		}
	}
	return h
}

// rate is the Bernoulli rate a non-reservoir sample was drawn at: Q, or 1 for
// an exhaustive sample, the Bern(1) sample of its partition.
func (s *Sample[V]) rate() float64 {
	if s.Kind == BernoulliKind {
		return s.Q
	}
	return 1
}

// thin returns fresh entries holding a Bern(rate) subsample of h's data
// elements — purgeBernoulli (Figure 3) into a copy, one binomial draw per
// entry — reading h only. rate ≥ 1 copies h.
func thin[V comparable](h *histogram.Histogram[V], rate float64, src randx.Source) []histogram.Entry[V] {
	out := make([]histogram.Entry[V], 0, h.Distinct())
	for i := 0; i < h.Distinct(); i++ {
		e := h.Entry(i)
		if rate < 1 {
			e.Count = randx.Binomial(src, e.Count, rate)
		}
		if e.Count > 0 {
			out = append(out, e)
		}
	}
	return out
}

// selectSRS appends to dst a simple random sample, without replacement, of
// cap(dst) of h's data elements in compact form, reading h in one sequential
// pass (selection sampling, Knuth's Algorithm S, lifted from elements to
// (value, count) entries). Walking the expanded elements one at a time, the
// next one is taken with probability need/remaining; over a run of c equal
// elements the number taken is therefore Hypergeometric(c, remaining−c, need),
// which is drawn once instead of flipping c coins. It requires
// cap(dst) ≤ h.Size().
func selectSRS[V comparable](h *histogram.Histogram[V], dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
	need, remaining := int64(cap(dst)), h.Size()
	for i := 0; need > 0; i++ {
		e := h.Entry(i)
		take := e.Count
		switch {
		case need == remaining:
			// Everything left is taken.
		case e.Count == 1:
			if randx.UniformInt(src, remaining) > need {
				take = 0
			}
		default:
			take = randx.Hypergeometric(src, e.Count, remaining-e.Count, need)
		}
		remaining -= e.Count
		if take > 0 {
			need -= take
			dst = append(dst, histogram.Entry[V]{Value: e.Value, Count: take})
		}
	}
	return dst
}
