package core

import (
	"cmp"
	"fmt"

	"samplewh/internal/fenwick"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// PurgeBernoulli subsamples the compact histogram h in place so that each of
// its data elements survives independently with probability q: the paper's
// purgeBernoulli(S, q) (Figure 3). Each (v, n) pair is processed with a
// single binomial(n, q) draw rather than n coin flips; pairs whose count
// drops to zero are removed.
//
// If S was a Bern(r) sample of a partition D, the purged S is a Bern(r·q)
// sample of D (paper §3.1).
//
// q ≥ 1 is a no-op; q ≤ 0 empties the histogram.
func PurgeBernoulli[V cmp.Ordered](h *histogram.Histogram[V], q float64, src randx.Source) {
	if q >= 1 {
		return
	}
	if q <= 0 {
		h.Reset()
		return
	}
	// Walk the entries by index. SetCount(i, 0) compacts by swapping the
	// last (not yet visited) entry into slot i, so on removal we stay at i.
	for i := 0; i < h.Distinct(); {
		n := randx.Binomial(src, h.Entry(i).Count, q)
		before := h.Distinct()
		h.SetCount(i, n)
		if h.Distinct() == before {
			i++
		}
	}
}

// PurgeReservoir subsamples the compact histogram h in place to a simple
// random sample (without replacement) of m of its data elements: the paper's
// purgeReservoir(S, M) (Figure 4). The procedure streams over the expanded
// elements implicitly, using Vitter skips to jump between inclusions and a
// Fenwick tree for O(log) victim selection, so its cost depends on the
// number of entries and m — never on the expanded size of h.
//
// If h holds m or fewer elements the call is a no-op (the reservoir would
// retain everything).
func PurgeReservoir[V cmp.Ordered](h *histogram.Histogram[V], m int64, src randx.Source) {
	if m < 0 {
		panic(fmt.Sprintf("core: PurgeReservoir with m = %d < 0", m))
	}
	if m == 0 {
		h.Reset()
		return
	}
	if h.Size() <= m {
		return
	}
	// h is read in entry order, (v_1,n_1), ..., (v_m,n_m), and not written
	// until every survivor count is known.
	newCounts := make([]int64, h.Distinct())
	tree := fenwick.New(len(newCounts)) // reservoir contents by entry

	sk := randx.NewSkipper(src, m)
	var b int64   // current upper bucket boundary (paper's b)
	var l int64   // current number of values in the reservoir (paper's L)
	j := int64(1) // 1-based index of the next element to include

	for i := range newCounts {
		b += h.Entry(i).Count
		for j <= b {
			if l == m {
				// Evict a uniformly random victim from the reservoir.
				v := randx.UniformInt(src, m)
				victim := tree.Select(v)
				tree.Add(victim, -1)
				newCounts[victim]--
				l--
			}
			tree.Add(i, 1)
			newCounts[i]++
			l++
			// Advance to the next inclusion. During warm-up (j <= m) every
			// element is included; afterwards Vitter skips apply.
			if j < m {
				j++
			} else {
				j += sk.Skip(j) + 1
			}
		}
	}

	// Compact h to the reservoir counts, entries in their order.
	h.Reload(newCounts)
}
