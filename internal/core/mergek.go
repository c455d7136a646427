package core

import (
	"context"
	"fmt"
	"sync"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// MergeK merges m non-exhaustive samples of disjoint partitions into a simple
// random sample of size k = minᵢ|Sᵢ| of their union in one pass, without
// mutating any input — the m-way form of HRMerge's lines 5–12 (DESIGN.md §9,
// layer 3):
//
//   - (L₁, …, L_m), the number of merged elements each partition contributes,
//     is drawn from the multivariate hypergeometric over the parent sizes |Dᵢ|
//     as a chain of conditional univariate draws: Lᵢ ~ Hypergeometric(|Dᵢ|,
//     Σ_{j>i}|Dⱼ|, k − Σ_{j<i}Lⱼ);
//   - each Sᵢ is subsampled once to Lᵢ elements by selection sampling over its
//     (value, count) entries — a singleton survives with probability
//     need/remaining, a count-c entry keeps Hypergeometric(c, remaining−c,
//     need) of its c copies — which is an exact simple random sample and only
//     reads the histogram;
//   - the survivors are joined once into a fresh histogram.
//
// Every input entry is visited once and every survivor inserted once, where a
// tree of pairwise HRMerges re-purges a value that reaches the root log₂ m
// times. Because the inputs are only read they may be shared (cached) samples;
// the result never aliases one — a single input comes back as a Clone.
//
// When src is a *randx.RNG input i selects from its own stream, split off src
// in input order right after Lᵢ is drawn, so up to parallelism goroutines
// (0 = one per input) select concurrently and the result is byte-identical
// for any parallelism. A foreign Source cannot be
// split; selection then runs sequentially on the shared stream.
//
// An exhaustive input is an error: its merge re-feeds a sampler (HRMerge lines
// 1–4) and consumes, so such a set belongs to the pairwise merges. When ctx
// carries an obs span the two phases record merge_select and merge_join
// children; a done ctx is observed between them.
func MergeK[V comparable](ctx context.Context, samples []*Sample[V], src randx.Source, parallelism int) (*Sample[V], error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("core: MergeK with no samples")
	}
	k := samples[0].Size()
	var parents int64
	for i, s := range samples {
		if s.Kind == Exhaustive {
			return nil, fmt.Errorf("core: MergeK input %d is exhaustive; use the pairwise merges", i)
		}
		if err := mergeCompatible(samples[0], s); err != nil {
			return nil, err
		}
		k = min(k, s.Size())
		parents += s.ParentSize
	}
	if len(samples) == 1 {
		return samples[0].Clone(), nil
	}
	cfg := samples[0].Config.normalized()
	out := &Sample[V]{Kind: ReservoirKind, ParentSize: parents, Config: cfg}

	// Input i's survivors land in its own window of one shared buffer: at most
	// Lᵢ entries, and ΣLᵢ = k. (k = 0 — some input sampled nothing — needs no
	// special case: every window is empty and so is the merged sample, the
	// only uniform one that can be certified.)
	buf := make([]histogram.Entry[V], k)
	kept := make([][]histogram.Entry[V], len(samples))
	srcs := make([]randx.Source, len(samples))
	rng, splittable := src.(*randx.RNG)
	if !splittable {
		parallelism = 1
	}
	rest, need, off := parents, k, int64(0)
	for i, s := range samples {
		rest -= s.ParentSize
		l := need // the last input takes what is left
		if i < len(samples)-1 {
			l = randx.Hypergeometric(src, s.ParentSize, rest, need)
		}
		need -= l
		kept[i] = buf[off : off : off+l]
		off += l
		srcs[i] = src
		if splittable {
			srcs[i] = rng.Split()
		}
	}

	parent := obs.SpanFromContext(ctx)
	workers := parallelismOrPairs(parallelism, len(samples))
	sp := parent.Start("merge_select")
	sp.SetValue("inputs", int64(len(samples)))
	sp.SetValue("k", k)
	sp.SetValue("workers", int64(workers))
	if workers == 1 {
		for i, s := range samples {
			kept[i] = selectSRS(s.Hist, kept[i], srcs[i])
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					kept[i] = selectSRS(samples[i].Hist, kept[i], srcs[i])
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
	distinct := 0
	for _, es := range kept {
		distinct += len(es)
	}
	out.Hist = histogram.NewSized[V](cfg.SizeModel, distinct)
	for _, es := range kept {
		for _, e := range es {
			out.Hist.Insert(e.Value, e.Count)
		}
	}
	sp.SetValue("distinct", int64(out.Hist.Distinct()))
	sp.End()
	return out, nil
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
