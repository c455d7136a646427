package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
// Each input's survivors are one run in value order — sorted first, only its
// own few entries, when the input was not in value order itself — and the runs
// are joined once by a k-way merge into a fresh histogram in strictly
// ascending value order, which builds a value index only if something looks a
// value up (join). Because the inputs are only read they may be shared
// (cached) samples; the result never aliases one — a single input comes back
// as a Clone, in value order too. Parent sizes that sum past int64 and an
// unusable config are errors.
//
// When src is a *randx.RNG input i draws from its own stream, split off src in
// input order (right after Lᵢ on the reservoir path), so up to parallelism
// goroutines (0 = one per input) work on the inputs concurrently and the
// result is byte-identical for any parallelism. A foreign Source cannot be
// split; the inputs are then walked sequentially on the shared stream. When
// ctx carries an obs span the two phases record merge_select and merge_join
// children; a done ctx is observed between them.
func MergeK[V cmp.Ordered](ctx context.Context, samples []*Sample[V], src randx.Source, parallelism int) (*Sample[V], error) {
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
		c := samples[0].Clone()
		c.Hist.Sort()
		return c, nil
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
	// Input i's survivors land in its own window of one pooled buffer, as
	// many entries as they can fill: its entries when it is thinned, and on
	// the reservoir path min(Lᵢ, its entries), where ΣLᵢ = k. (k = 0 — some
	// input sampled nothing — needs no special case: every window is empty
	// and so is the merged sample, the only uniform one that can be
	// certified.)
	window := func(i int) int64 {
		if d := int64(samples[i].Hist.Distinct()); !reservoir || ls[i] > d {
			return d
		}
		return ls[i]
	}
	rest, need, total := parents, k, int64(0)
	for i, s := range samples {
		if reservoir {
			rest -= s.ParentSize
			ls[i] = need // the last input takes what is left
			if i < len(samples)-1 {
				ls[i] = randx.Hypergeometric(src, s.ParentSize, rest, need)
			}
			need -= ls[i]
		}
		total += window(i)
		srcs[i] = src
		if splittable {
			srcs[i] = rng.Split()
		}
	}
	buf := windows[V](total, math.MaxInt64)
	for i, off := 0, int64(0); i < len(kept); i++ {
		kept[i] = buf[off : off : off+window(i)]
		off += window(i)
	}
	pick := func(i int) {
		if reservoir {
			kept[i] = selectSRS(samples[i].Hist, ls[i], kept[i], srcs[i])
		} else {
			kept[i] = thin(samples[i].Hist, q/samples[i].rate(), kept[i], srcs[i])
		}
		sortRun(kept[i])
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
	out.Hist, out.owned = join(cfg.SizeModel, kept), true
	putWindows(buf, nf, kept...)
	switch {
	case reservoir: // the size-k SRS the draw made
	case out.Hist.Footprint() > cfg.FootprintBytes:
		// The low-probability overflow (HBMerge lines 14–16): an SRS of n_F
		// elements of a Bern(q) sample of the union is one of the union.
		n := min(nf, out.Size())
		srs := selectSRS(out.Hist, n, make([]histogram.Entry[V], 0, min(n, int64(out.Hist.Distinct()))), src)
		out.Recycle()
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

// join sums the inputs' survivor runs, each in strictly ascending value order,
// into one histogram, the paper's join over all of them at once: a k-way merge
// over a binary heap of run heads, each head carrying its value, in which a
// value equal to the last one written adds its count to it. The result is in
// strictly ascending value order. Its entries are a buffer from the window
// pool, at most twice the runs' length — the merged sample may outlive the
// request that made it — which Recycle gives back; the histogram adopts them
// and builds an index of its own only if something looks a value up.
func join[V cmp.Ordered](model histogram.SizeModel, kept [][]histogram.Entry[V]) *histogram.Histogram[V] {
	n := 0
	heads := make([]runHead[V], 0, len(kept))
	for _, es := range kept {
		if len(es) > 0 {
			n += len(es)
			heads = append(heads, runHead[V]{value: es[0].Value, rest: es})
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		siftDown(heads, i)
	}
	out := windows[V](int64(n), 2*int64(n))[:0]
	for len(heads) > 0 {
		top := &heads[0]
		if e := top.rest[0]; len(out) > 0 && out[len(out)-1].Value == e.Value {
			out[len(out)-1].Count += e.Count
		} else {
			out = append(out, e)
		}
		if top.rest = top.rest[1:]; len(top.rest) > 0 {
			top.value = top.rest[0].Value
		} else if heads[0], heads = heads[len(heads)-1], heads[:len(heads)-1]; len(heads) == 0 {
			break
		}
		siftDown(heads, 0)
	}
	return histogram.FromEntries(model, out)
}

// runHead is a survivor run in join's heap, keyed by the value of its first
// entry.
type runHead[V cmp.Ordered] struct {
	value V
	rest  []histogram.Entry[V]
}

// siftDown moves the head at position i down the min-heap h to its place,
// lifting each smaller child into the hole it leaves.
func siftDown[V cmp.Ordered](h []runHead[V], i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && cmp.Less(h[c+1].value, h[c].value) {
			c++
		}
		if !cmp.Less(h[c].value, x.value) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// sortRun puts one input's survivors in value order, in place, unless they
// are already: a sample a store serves is in value order and so are its
// survivors; legacy-order files, adopted bytes and in-memory sampler output
// are not.
func sortRun[V cmp.Ordered](es []histogram.Entry[V]) {
	byValue := func(a, b histogram.Entry[V]) int { return cmp.Compare(a.Value, b.Value) }
	if !slices.IsSortedFunc(es, byValue) {
		slices.SortFunc(es, byValue)
	}
}

// windowPool holds the buffers MergeK cuts its survivor windows and its
// merged sample's entries from, of whichever value type was merged last; one
// of another type is dropped and a fresh one made. Every pooled buffer is
// zeroed through its capacity.
var windowPool sync.Pool

// windows returns a zeroed buffer of n entries, pooled when one holds at
// least n and at most most. One that is larger goes back for a later caller;
// one too small, or of another type, is dropped.
func windows[V cmp.Ordered](n, most int64) []histogram.Entry[V] {
	if p, ok := windowPool.Get().(*[]histogram.Entry[V]); ok && int64(cap(*p)) >= n {
		if int64(cap(*p)) <= most {
			return (*p)[:n]
		}
		windowPool.Put(p)
	}
	return make([]histogram.Entry[V], n)
}

// putWindows pools buf once the runs written into it are cleared, so it is
// zeroed again and holds no value alive. A buffer of more than a few n_F
// entries — a thinned merge's windows are its inputs' whole entries — is let
// go instead, so one large merge does not pin it in the pool, and so is an
// empty one.
func putWindows[V cmp.Ordered](buf []histogram.Entry[V], nf int64, runs ...[]histogram.Entry[V]) {
	if cap(buf) == 0 || int64(cap(buf))/4 > nf {
		return
	}
	for _, run := range runs {
		clear(run)
	}
	buf = buf[:cap(buf)]
	windowPool.Put(&buf)
}

// rate is the Bernoulli rate a non-reservoir sample was drawn at: Q, or 1 for
// an exhaustive sample, the Bern(1) sample of its partition.
func (s *Sample[V]) rate() float64 {
	if s.Kind == BernoulliKind {
		return s.Q
	}
	return 1
}

// thin appends to dst a Bern(rate) subsample of h's data elements —
// purgeBernoulli (Figure 3) into a copy, one binomial draw per entry — in h's
// entry order, reading h only. rate ≥ 1 copies h.
func thin[V cmp.Ordered](h *histogram.Histogram[V], rate float64, dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
	for i, n := 0, h.Distinct(); i < n; i++ {
		e := h.Entry(i)
		if rate < 1 {
			e.Count = randx.Binomial(src, e.Count, rate)
		}
		if e.Count > 0 {
			dst = append(dst, e)
		}
	}
	return dst
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
// ascending order then maps positions onto entries through h.Repeats, the
// entries whose count is above 1: outside their runs a position p is entry p −
// excess, excess being the counts above 1 of the repeated entries before it,
// so the pass costs the survivors and the repeats, never the other entries.
// Where walks says the bitset costs more than the entries, and when every
// element is taken, selectWalk does it instead.
func selectSRS[V cmp.Ordered](h *histogram.Histogram[V], n int64, dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
	size := h.Size()
	if n == 0 {
		return dst
	}
	if n == size || walks(size, h.Distinct()) {
		return selectWalk(h, n, dst, src)
	}
	p := positions(size)
	set := *p
	for j := size - n; j < size; j++ {
		t := randx.Int64n(src, j+1)
		if set[t/64]&(1<<(t%64)) != 0 {
			t = j
		}
		set[t/64] |= 1 << (t % 64)
	}
	// reps[r] is the next repeated entry; its run starts at position
	// reps[r] + excess. last is the entry dst ends with.
	reps := h.Repeats()
	r, excess, last := 0, int64(0), -1
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			p := int64(w*64 + bits.TrailingZeros64(word))
			i := -1
			for r < len(reps) {
				start := int64(reps[r]) + excess
				if p < start {
					break
				}
				c := h.Entry(reps[r]).Count
				if p < start+c {
					i = reps[r]
					break
				}
				excess += c - 1
				r++
			}
			if i < 0 {
				i = int(p - excess)
			}
			if i == last {
				dst[len(dst)-1].Count++
				continue
			}
			dst = append(dst, histogram.Entry[V]{Value: h.Entry(i).Value, Count: 1})
			last = i
		}
	}
	putPositions(p)
	return dst
}

// positionPool holds cleared position sets for selectSRS, at most
// maxPooledPositions words each.
var positionPool sync.Pool

// maxPooledPositions bounds a pooled position set: 4096 words, 32 KiB, cover
// a 262 144-element sample.
const maxPooledPositions = 1 << 12

// positions returns a cleared bitset over size positions, pooled when one
// large enough is. The caller hands the pointer back to putPositions.
func positions(size int64) *[]uint64 {
	words := (size + 63) / 64
	p, ok := positionPool.Get().(*[]uint64)
	if !ok || int64(cap(*p)) < words {
		p = new([]uint64)
		*p = make([]uint64, words)
	}
	*p = (*p)[:words]
	return p
}

// putPositions clears a set positions returned and pools it, unless it is
// larger than maxPooledPositions words.
func putPositions(p *[]uint64) {
	if cap(*p) > maxPooledPositions {
		return
	}
	clear(*p)
	positionPool.Put(p)
}

// selectWalk is selectSRS by selection sampling (Knuth's Algorithm S, lifted
// from elements to (value, count) entries), one draw per entry: walking the
// expanded elements in order, the next is taken with probability
// need/remaining, so over a run of c equal elements the number taken is
// Hypergeometric(c, remaining−c, need), drawn once instead of flipping c
// coins. Once need = remaining everything left is taken without a draw.
func selectWalk[V cmp.Ordered](h *histogram.Histogram[V], n int64, dst []histogram.Entry[V], src randx.Source) []histogram.Entry[V] {
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
