// Package histogram implements the compact sample representation used
// throughout the sample warehouse: a bounded set of (value, count) pairs in
// which singleton values are charged only for the value itself, exactly as
// in the concise-sample storage format of Gibbons & Matias that the paper
// adopts (§2 requirement 4, §3.3).
//
// A Histogram tracks its byte footprint incrementally under a SizeModel so
// the samplers can detect the moment the a priori bound F would be exceeded
// without rescanning the sample.
//
// Entries are kept in a deterministic order (insertion order, with
// swap-with-last compaction on removal), so that all sampling algorithms
// driven by a seeded random source are exactly reproducible; Go's randomized
// map iteration order never influences results.
//
// The entry slice is the histogram; the value → position index is a cache
// over it, built by the first lookup or mutation (see indexed). A histogram
// that is only iterated — decoded, cloned, cached, walked by a merge or an
// estimator — never pays for one.
package histogram

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// SizeModel describes the storage cost of the compact representation:
// every distinct value costs ValueBytes, and a value with count > 1
// additionally costs CountBytes for its counter. Singletons are stored as a
// bare value (paper §3.3), so they are not charged CountBytes.
type SizeModel struct {
	ValueBytes int64
	CountBytes int64
}

// DefaultSizeModel matches the paper's integer data sets: 8-byte values with
// 4-byte counters.
var DefaultSizeModel = SizeModel{ValueBytes: 8, CountBytes: 4}

// PairBytes returns the cost of a (value, count) entry with the given count.
func (m SizeModel) PairBytes(count int64) int64 {
	if count > 1 {
		return m.ValueBytes + m.CountBytes
	}
	return m.ValueBytes
}

// MaxValues returns n_F, the largest number of data-element values whose
// expanded (bag) form fits in footprint bytes: n_F = F / ValueBytes. This is
// the sample-size bound the paper derives from the footprint bound.
func (m SizeModel) MaxValues(footprint int64) int64 {
	if m.ValueBytes <= 0 {
		panic("histogram: SizeModel with ValueBytes <= 0")
	}
	return footprint / m.ValueBytes
}

// Entry is a single (value, count) pair of a compact histogram.
type Entry[V comparable] struct {
	Value V
	Count int64
}

// Histogram is a compact multiset of values with incremental footprint
// accounting. The zero value is not usable; construct with New.
type Histogram[V comparable] struct {
	model     SizeModel
	entries   []Entry[V]
	index     atomic.Pointer[map[V]int] // nil until indexed builds it
	size      int64                     // total number of data elements (sum of counts)
	footprint int64                     // bytes under the compact representation
}

// New returns an empty histogram using the given size model.
func New[V comparable](model SizeModel) *Histogram[V] {
	return NewSized[V](model, 0)
}

// NewSized is New with room for distinct entries reserved up front, for
// builders that know the entry count before they insert (a merge join, a
// bag): neither the entry slice nor the index, which is sized by that
// reservation when the first insert builds it, rehashes on the way.
func NewSized[V comparable](model SizeModel, distinct int) *Histogram[V] {
	if distinct < 0 {
		distinct = 0
	}
	return &Histogram[V]{model: model, entries: make([]Entry[V], 0, distinct)}
}

// FromEntries adopts a ready slice of entries — distinct values, counts ≥ 1,
// both the caller's to have checked — as a histogram, summing only size and
// footprint. The slice belongs to the histogram afterwards.
func FromEntries[V comparable](model SizeModel, entries []Entry[V]) *Histogram[V] {
	h := &Histogram[V]{model: model, entries: entries}
	for _, e := range entries {
		h.size += e.Count
		h.footprint += model.PairBytes(e.Count)
	}
	return h
}

// FromBag builds a histogram holding every element of the bag.
func FromBag[V comparable](model SizeModel, bag []V) *Histogram[V] {
	h := NewSized[V](model, len(bag))
	for _, v := range bag {
		h.Insert(v, 1)
	}
	return h
}

// indexed returns the value → position map over the entries, building it when
// the histogram has none: after FromEntries, Clone or SortFunc, or before the
// first insert. It is the only reader of h.index, and it publishes what it
// builds atomically, so a lookup (Count, Equal, JoinedFootprint) stays legal
// on a histogram several goroutines share read-only: each finds the published
// map or builds an equal one of its own, and none writes anything another
// reads unsynchronised.
func (h *Histogram[V]) indexed() map[V]int {
	if p := h.index.Load(); p != nil {
		return *p
	}
	m := make(map[V]int, cap(h.entries))
	for i, e := range h.entries {
		m[e.Value] = i
	}
	h.index.Store(&m)
	return m
}

// Model returns the histogram's size model.
func (h *Histogram[V]) Model() SizeModel { return h.model }

// Size returns the number of data elements represented (the sum of counts):
// the paper's |S|.
func (h *Histogram[V]) Size() int64 { return h.size }

// Distinct returns the number of distinct values.
func (h *Histogram[V]) Distinct() int { return len(h.entries) }

// Footprint returns the byte cost of the compact representation under the
// histogram's size model.
func (h *Histogram[V]) Footprint() int64 { return h.footprint }

// Count returns the multiplicity of v in the histogram (0 if absent).
func (h *Histogram[V]) Count(v V) int64 {
	if i, ok := h.indexed()[v]; ok {
		return h.entries[i].Count
	}
	return 0
}

// Insert adds n occurrences of v. This is the paper's insertValue primitive
// generalized to n ≥ 1; Insert(v, 1) matches insertValue(v, S) exactly.
// It panics if n < 1.
func (h *Histogram[V]) Insert(v V, n int64) {
	if n < 1 {
		panic(fmt.Sprintf("histogram: Insert with n = %d < 1", n))
	}
	index := h.indexed()
	if i, ok := index[v]; ok {
		old := h.entries[i].Count
		h.entries[i].Count = old + n
		h.footprint += h.model.PairBytes(old+n) - h.model.PairBytes(old)
	} else {
		index[v] = len(h.entries)
		h.entries = append(h.entries, Entry[V]{Value: v, Count: n})
		h.footprint += h.model.PairBytes(n)
	}
	h.size += n
}

// FootprintAfterInsert returns the footprint the histogram would have after
// one more occurrence of v, without inserting. The bounded samplers use it
// to transition out of their exact phase *before* an insert could push the
// footprint past the a priori bound F.
func (h *Histogram[V]) FootprintAfterInsert(v V) int64 {
	switch h.Count(v) {
	case 0:
		return h.footprint + h.model.PairBytes(1)
	case 1:
		return h.footprint + h.model.PairBytes(2) - h.model.PairBytes(1)
	default:
		return h.footprint
	}
}

// Remove deletes n occurrences of v, dropping the entry when its count
// reaches zero. It panics if fewer than n occurrences are present.
func (h *Histogram[V]) Remove(v V, n int64) {
	if n < 1 {
		panic(fmt.Sprintf("histogram: Remove with n = %d < 1", n))
	}
	i, ok := h.indexed()[v]
	if !ok || h.entries[i].Count < n {
		panic("histogram: Remove of more occurrences than present")
	}
	old := h.entries[i].Count
	rest := old - n
	h.size -= n
	if rest == 0 {
		h.footprint -= h.model.PairBytes(old)
		h.removeAt(i)
		return
	}
	h.entries[i].Count = rest
	h.footprint += h.model.PairBytes(rest) - h.model.PairBytes(old)
}

// SetCount forces the multiplicity of the i-th entry to count (count ≥ 0),
// dropping the entry at zero. It is the in-place update the purge operators
// use while streaming over the entries; indices of later entries are
// preserved unless the entry is dropped (swap-with-last).
func (h *Histogram[V]) SetCount(i int, count int64) {
	if i < 0 || i >= len(h.entries) {
		panic(fmt.Sprintf("histogram: SetCount index %d out of range", i))
	}
	if count < 0 {
		panic(fmt.Sprintf("histogram: SetCount with count = %d < 0", count))
	}
	old := h.entries[i].Count
	h.size += count - old
	if count == 0 {
		h.footprint -= h.model.PairBytes(old)
		h.removeAt(i)
		return
	}
	h.entries[i].Count = count
	h.footprint += h.model.PairBytes(count) - h.model.PairBytes(old)
}

// removeAt drops entry i by swapping the final entry into its slot.
func (h *Histogram[V]) removeAt(i int) {
	index := h.indexed()
	last := len(h.entries) - 1
	delete(index, h.entries[i].Value)
	if i != last {
		h.entries[i] = h.entries[last]
		index[h.entries[i].Value] = i
	}
	h.entries[last] = Entry[V]{}
	h.entries = h.entries[:last]
}

// Entry returns the i-th (value, count) entry. The order is deterministic
// for a fixed operation sequence but otherwise unspecified.
func (h *Histogram[V]) Entry(i int) Entry[V] { return h.entries[i] }

// Entries returns a copy of the entry slice.
func (h *Histogram[V]) Entries() []Entry[V] {
	out := make([]Entry[V], len(h.entries))
	copy(out, h.entries)
	return out
}

// Each calls fn for every (value, count) entry in deterministic order.
// fn must not mutate the histogram.
func (h *Histogram[V]) Each(fn func(v V, count int64)) {
	for _, e := range h.entries {
		fn(e.Value, e.Count)
	}
}

// Expand converts the compact histogram to a bag of values: the paper's
// expand(S) operator. The order groups equal values together and follows the
// deterministic entry order.
func (h *Histogram[V]) Expand() []V {
	bag := make([]V, 0, h.size)
	for _, e := range h.entries {
		for j := int64(0); j < e.Count; j++ {
			bag = append(bag, e.Value)
		}
	}
	return bag
}

// Clone returns a deep copy of the histogram: the entries, in order. The
// copy indexes itself if and when it is looked up or mutated.
func (h *Histogram[V]) Clone() *Histogram[V] {
	return &Histogram[V]{
		model:     h.model,
		entries:   slices.Clone(h.entries),
		size:      h.size,
		footprint: h.footprint,
	}
}

// IsSortedFunc reports whether the entries are in ascending order of cmp over
// their values.
func (h *Histogram[V]) IsSortedFunc(cmp func(a, b V) int) bool {
	return slices.IsSortedFunc(h.entries, func(a, b Entry[V]) int { return cmp(a.Value, b.Value) })
}

// SortFunc puts the entries in ascending order of cmp over their values, in
// place and without a scratch copy; the index, which maps values to the old
// positions, goes. A histogram already in order is left untouched — not one
// write — so sorting one that is shared read-only is legal once it is sorted.
func (h *Histogram[V]) SortFunc(cmp func(a, b V) int) {
	if h.IsSortedFunc(cmp) {
		return
	}
	slices.SortFunc(h.entries, func(a, b Entry[V]) int { return cmp(a.Value, b.Value) })
	h.index.Store(nil)
}

// Join merges other into h, summing counts of shared values. This is the
// paper's join(S1, S2) operator: it computes the compact representation of
// expand(S1) ∪ expand(S2) without performing either expansion. The receiver
// is modified; other is not.
func (h *Histogram[V]) Join(other *Histogram[V]) {
	other.Each(func(v V, n int64) { h.Insert(v, n) })
}

// JoinedFootprint returns the footprint that Join(other) would produce,
// without materializing the join. HBMerge uses this to evaluate the
// "footprint(join(S1,S2)) < F" guard cheaply (paper Figure 6, line 12).
func (h *Histogram[V]) JoinedFootprint(other *Histogram[V]) int64 {
	fp := h.footprint
	other.Each(func(v V, n int64) {
		if cur := h.Count(v); cur > 0 {
			fp += h.model.PairBytes(cur+n) - h.model.PairBytes(cur)
		} else {
			fp += h.model.PairBytes(n)
		}
	})
	return fp
}

// Equal reports whether two histograms represent the same multiset
// (regardless of entry order).
func (h *Histogram[V]) Equal(other *Histogram[V]) bool {
	if h.size != other.size || len(h.entries) != len(other.entries) {
		return false
	}
	for _, e := range h.entries {
		if other.Count(e.Value) != e.Count {
			return false
		}
	}
	return true
}

// Reset empties the histogram in place, retaining allocated capacity.
func (h *Histogram[V]) Reset() {
	h.entries = h.entries[:0]
	clear(h.indexed()) // a built index keeps its capacity; an unbuilt one is built empty
	h.size = 0
	h.footprint = 0
}

// String renders small histograms for debugging and test failure messages.
func (h *Histogram[V]) String() string {
	return fmt.Sprintf("Histogram{distinct=%d size=%d footprint=%dB}",
		len(h.entries), h.size, h.footprint)
}

// SortedEntries returns the entries ordered by the given less function on
// values; used by tests and reports that need canonical output.
func (h *Histogram[V]) SortedEntries(less func(a, b V) bool) []Entry[V] {
	out := h.Entries()
	sort.Slice(out, func(i, j int) bool { return less(out[i].Value, out[j].Value) })
	return out
}
