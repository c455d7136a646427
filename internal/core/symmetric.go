package core

import (
	"cmp"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// SymmetricMerger accelerates repeated HRMerge operations in the scenario
// the paper's §4.2 describes: "the partition sizes and sample sizes are
// unchanging and merges are performed in a symmetric pairwise fashion, in
// which case we need to produce many samples from a fixed probability
// vector P (actually, from a small collection of such probability vectors
// that correspond to the different levels in the binary tree that
// represents the merge steps). In this case, the alias method can be used
// to increase generation efficiency."
//
// The merger caches one Walker alias table per distinct hypergeometric
// parameter triple (|D1|, |D2|, k); a balanced merge tree over equal-size
// partitions touches only O(log n) distinct triples, so every level after
// the first draws its split L in O(1).
type SymmetricMerger[V cmp.Ordered] struct {
	cache map[[3]int64]*randx.AliasTable
}

// NewSymmetricMerger returns a merger with an empty alias-table cache.
func NewSymmetricMerger[V cmp.Ordered]() *SymmetricMerger[V] {
	return &SymmetricMerger[V]{cache: make(map[[3]int64]*randx.AliasTable)}
}

// CachedTables returns the number of distinct alias tables built so far.
func (m *SymmetricMerger[V]) CachedTables() int { return len(m.cache) }

// Merge performs HRMerge with alias-table acceleration of the
// hypergeometric draw. Semantics are identical to HRMerge; inputs are
// consumed. Its method value satisfies MergeFunc for use with MergeTree.
func (m *SymmetricMerger[V]) Merge(s1, s2 *Sample[V], src randx.Source) (*Sample[V], error) {
	if err := mergeCompatible(s1, s2); err != nil {
		return nil, err
	}
	// Exhaustive cases delegate to the plain implementation (no
	// hypergeometric draw is involved there).
	if s1.Kind == Exhaustive || s2.Kind == Exhaustive {
		return HRMerge(s1, s2, src)
	}
	cfg := s1.Config.normalized()
	k := s1.Size()
	if s2.Size() < k {
		k = s2.Size()
	}
	out := &Sample[V]{
		Kind:       ReservoirKind,
		ParentSize: s1.ParentSize + s2.ParentSize,
		Config:     cfg,
	}
	if k == 0 {
		out.Hist = histogram.New[V](cfg.SizeModel)
		return out, nil
	}
	key := [3]int64{s1.ParentSize, s2.ParentSize, k}
	table, ok := m.cache[key]
	if !ok {
		table = randx.NewHypergeom(s1.ParentSize, s2.ParentSize, k).Alias()
		m.cache[key] = table
	}
	l := table.Sample(src)
	PurgeReservoir(s1.Hist, l, src)
	PurgeReservoir(s2.Hist, k-l, src)
	s1.Hist.Join(s2.Hist)
	out.Hist = s1.Hist
	return out, nil
}

var _ MergeFunc[int64] = (*SymmetricMerger[int64])(nil).Merge
