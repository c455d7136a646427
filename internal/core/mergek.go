package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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
//     k − Σ_{j<i}Lⱼ), and each Sᵢ is subsampled once to Lᵢ elements, one
//     draw per survivor (selectSRS: Floyd's algorithm over its expanded
//     elements, or a walk of its entries where they are few and repeated).
//   - With only Bernoulli and exhaustive inputs (an exhaustive sample is a
//     Bern(1) sample) it is HBMerge's lines 8–16: every input is thinned once
//     to one rate q — q = min(q(ΣNᵢ, p, n_F), minᵢ qᵢ) when any input is
//     Bernoulli, 1 when none is — and if the join of the thinned inputs
//     exceeds F, a simple random sample of n_F is taken from it.
//
// The survivors are joined once, in place, into a fresh histogram that builds
// a value index only if something looks a value up (join). Because the inputs
// are only read they may be shared (cached) samples; the result never aliases
// one — a single input comes back as a Clone. Parent sizes that sum past
// int64 and an unusable config are errors.
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
		if s.ParentSize > math.MaxInt64-parents {
			return nil, fmt.Errorf("core: MergeK parent sizes sum past %d", int64(math.MaxInt64))
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
	cfg, err := samples[0].Config.checked()
	if err != nil {
		return nil, err
	}
	nf := cfg.NF()
	if bernoulli && parents > 0 {
		q = min(q, QApprox(parents, cfg.ExceedProb, nf))
	}
	out := &Sample[V]{Kind: ReservoirKind, ParentSize: parents, Config: cfg}

	kept := make([][]histogram.Entry[V], len(samples))
	ls := make([]int64, len(samples))
	srcs := make([]randx.Source, len(samples))
	rng, splittable := src.(*randx.RNG)
	if !splittable {
		parallelism = 1
	}
	// On the reservoir path input i's survivors land in its own window of one
	// shared buffer, as many entries as they can fill: min(Lᵢ, its entries),
	// and ΣLᵢ = k. (k = 0 — some input sampled nothing — needs no special
	// case: every window is empty and so is the merged sample, the only
	// uniform one that can be certified.)
	window := func(i int) int64 { return min(ls[i], int64(samples[i].Hist.Distinct())) }
	rest, need, total := parents, k, int64(0)
	for i, s := range samples {
		if reservoir {
			rest -= s.ParentSize
			ls[i] = need // the last input takes what is left
			if i < len(samples)-1 {
				ls[i] = randx.Hypergeometric(src, s.ParentSize, rest, need)
			}
			need -= ls[i]
			total += window(i)
		}
		srcs[i] = src
		if splittable {
			srcs[i] = rng.Split()
		}
	}
	buf := make([]histogram.Entry[V], total)
	for i, off := 0, int64(0); reservoir && i < len(kept); i++ {
		kept[i] = buf[off : off : off+window(i)]
		off += window(i)
	}
	pick := func(i int) { kept[i] = selectSRS(samples[i].Hist, ls[i], kept[i], srcs[i]) }
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
	out.Hist = join(cfg.SizeModel, buf, kept, nf)
	switch {
	case reservoir: // the size-k SRS the draw made
	case out.Hist.Footprint() > cfg.FootprintBytes:
		// The low-probability overflow (HBMerge lines 14–16): an SRS of n_F
		// elements of a Bern(q) sample of the union is one of the union.
		n := min(nf, out.Size())
		srs := selectSRS(out.Hist, n, make([]histogram.Entry[V], 0, min(n, int64(out.Hist.Distinct()))), src)
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

// join sums the inputs' survivors into one histogram, the paper's join over
// all of them at once: a value seen before adds its count to its first entry,
// a new one is written at the next free slot. When the survivors sit in
// windows of buf, in order (the reservoir path), that is done in place in
// buf's front — the next free slot is never past the entry being read — and
// otherwise into a fresh slice of their number. The value → position map that
// finds a repeat is borrowed from a pool and handed back empty, unless it may
// have grown past a few n_F. The histogram adopts the entries and builds an
// index of its own only if something looks a value up.
func join[V comparable](model histogram.SizeModel, buf []histogram.Entry[V], kept [][]histogram.Entry[V], nf int64) *histogram.Histogram[V] {
	n := 0
	for _, es := range kept {
		n += len(es)
	}
	pool := dedupePool[V]()
	seen, _ := pool.Get().(map[V]int)
	if seen == nil {
		seen = make(map[V]int, n)
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]histogram.Entry[V], 0, n)
	}
	for _, es := range kept {
		for _, e := range es {
			if j, ok := seen[e.Value]; ok {
				out[j].Count += e.Count
				continue
			}
			seen[e.Value] = len(out)
			out = append(out, e)
		}
	}
	if int64(n)/4 <= nf {
		clear(seen)
		pool.Put(seen)
	}
	return histogram.FromEntries(model, out)
}

// dedupePools holds join's map pool for each value type, keyed by (*V)(nil).
var dedupePools sync.Map

func dedupePool[V comparable]() *sync.Pool {
	key := any((*V)(nil))
	if p, ok := dedupePools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := dedupePools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
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

// walks is selectSRS's cost rule: walk the entries when a bitset over the
// expanded elements, size bits, would take more words than h has entries — a
// few values, heavily repeated. It is also what keeps a hostile size from
// sizing a bitset: one is never larger than the entries it indexes.
func walks(size int64, distinct int) bool { return size/64 > int64(distinct) }

// selectSRS appends to dst a simple random sample, without replacement, of n
// of h's data elements (n ≤ h.Size()) in compact form and in h's entry order,
// reading h only. Number the expanded elements 0…|S|−1, entry by entry. Floyd's
// algorithm picks n distinct positions uniformly, one draw per survivor: for j
// = |S|−n … |S|−1, draw t uniform in [0, j] and take t, or j if t is taken
// already — a bitset of |S| bits is the set. One pass over the bitset in
// ascending order then maps positions onto entries (a position is the entry
// index when every count is 1). Where walks says the bitset costs more than
// the entries, and when every element is taken, selectWalk does it instead.
func selectSRS[V comparable](h *histogram.Histogram[V], n int64, dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
	size := h.Size()
	if n == 0 {
		return dst
	}
	if n == size || walks(size, h.Distinct()) {
		return selectWalk(h, n, dst, src)
	}
	set := make([]uint64, (size+63)/64)
	for j := size - n; j < size; j++ {
		t := randx.Int64n(src, j+1)
		if set[t/64]&(1<<(t%64)) != 0 {
			t = j
		}
		set[t/64] |= 1 << (t % 64)
	}
	if size == int64(h.Distinct()) {
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, h.Entry(w*64+bits.TrailingZeros64(word)))
			}
		}
		return dst
	}
	// Entry i holds positions [end − its count, end); last is the entry dst
	// ends with.
	i, end, last := 0, h.Entry(0).Count, -1
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			for p := int64(w*64 + bits.TrailingZeros64(word)); p >= end; {
				i++
				end += h.Entry(i).Count
			}
			if i == last {
				dst[len(dst)-1].Count++
				continue
			}
			dst = append(dst, histogram.Entry[V]{Value: h.Entry(i).Value, Count: 1})
			last = i
		}
	}
	return dst
}

// selectWalk is selectSRS by selection sampling (Knuth's Algorithm S, lifted
// from elements to (value, count) entries), one draw per entry: walking the
// expanded elements in order, the next is taken with probability
// need/remaining, so over a run of c equal elements the number taken is
// Hypergeometric(c, remaining−c, need), drawn once instead of flipping c
// coins. Once need = remaining everything left is taken without a draw.
func selectWalk[V comparable](h *histogram.Histogram[V], n int64, dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
	need, remaining := n, h.Size()
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
