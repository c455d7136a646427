// Package sketch implements compact, mergeable per-partition summary
// sidecars for the sample warehouse: row count, min/max, first two moments,
// a KMV (k-minimum-values) distinct sketch, and a space-saving heavy-hitters
// list. A Summary is a few KB regardless of partition size, merges under the
// same closure law as the paper's samples (any subset of partition summaries
// combines into a valid summary of the union), and lets the read path prove
// facts about a partition — "no value in [lo,hi] exists here", "at least D
// distinct values", "value v appears between c-e and c times" — without
// loading the partition's sample.
//
// Two provenances exist. A stream-built Summary (Source "stream") saw every
// ingested value and its facts are exact over the full partition. A
// sample-built Summary (Source "sample", produced by FromSample or fsck
// -fix backfill) only proves facts about the stored sample — but since the
// stored sample is all a query can ever observe for that partition, pruning
// on a sample-built sketch is still answer-preserving.
package sketch

import (
	"fmt"
	"math"
	"sort"
)

// Version is the current sidecar format version. Loaders must reject (and
// backfill) summaries with a different version.
const Version = 1

const (
	// DefaultKMVK is the default number of minimum hash values kept by the
	// distinct sketch: relative standard error ≈ 1/sqrt(K-2) ≈ 6.3%.
	DefaultKMVK = 256
	// DefaultHeavyK is the default number of space-saving counters.
	DefaultHeavyK = 16
)

// Source labels how a Summary was built.
const (
	// SourceStream means every ingested value passed through the builder;
	// facts are exact over the full partition.
	SourceStream = "stream"
	// SourceSample means the summary was derived from the stored sample;
	// facts are exact over the sample (moments scaled to population).
	SourceSample = "sample"
)

// HeavyHit is one space-saving counter: Value occurred at least Count-Err
// and at most Count times in the summarized stream.
type HeavyHit struct {
	Value int64 `json:"value"`
	Count int64 `json:"count"`
	Err   int64 `json:"err,omitempty"`
}

// Summary is the mergeable per-partition sidecar.
type Summary struct {
	// Version is the format version (see Version).
	Version int `json:"version"`
	// Source is SourceStream or SourceSample.
	Source string `json:"source"`
	// Exhaustive mirrors the companion sample's kind: true when the stored
	// sample is the complete frequency histogram of the partition. Pruned
	// partitions contribute this flag to the estimator's exactness.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Count is the summarized population size (rows in the partition).
	Count int64 `json:"count"`
	// Observed is the number of values actually hashed into the sketch
	// (= Count for stream summaries, sample size for sample summaries).
	// A summary with Observed == 0 proves nothing and must not prune.
	Observed int64 `json:"observed"`
	// Min and Max bound every observed value. Empty summaries hold
	// Min = MaxInt64, Max = MinInt64 so that any merge is an identity.
	Min int64 `json:"min"`
	Max int64 `json:"max"`
	// Sum and Sum2 are the first two moments at population scale (sample
	// summaries scale by ParentSize/SampleSize).
	Sum  float64 `json:"sum"`
	Sum2 float64 `json:"sum2"`
	// KMVK is the sketch capacity; KMV holds the up-to-KMVK smallest
	// 64-bit value hashes in ascending order.
	KMVK int      `json:"kmv_k"`
	KMV  []uint64 `json:"kmv,omitempty"`
	// HeavyK is the space-saving capacity; Heavy holds up to HeavyK
	// counters in descending Count order. HeavyFloor is an upper bound on
	// the count of any value absent from Heavy (0 until the counter table
	// first overflowed).
	HeavyK     int        `json:"heavy_k"`
	Heavy      []HeavyHit `json:"heavy,omitempty"`
	HeavyFloor int64      `json:"heavy_floor,omitempty"`
}

// splitmix64 is the value hash for the KMV sketch: a strong 64-bit mixer
// (Vigna) whose full avalanche makes the k smallest hash values behave as
// k uniform order statistics.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash returns the sketch hash of a value. Exposed so tests and tools can
// reproduce sketch contents.
func Hash(v int64) uint64 { return splitmix64(uint64(v)) }

// Builder accumulates a stream of values into a Summary. The zero Builder
// is not ready; use NewBuilder.
type Builder struct {
	sum Summary
	kmv *kmvHeap
	// heavy holds the space-saving counters in claim order, at most heavyK of
	// them. An eviction overwrites the minimum counter in place, so a stream
	// of unseen values allocates nothing.
	heavy      []HeavyHit
	heavyK     int
	heavyFloor int64
}

// NewBuilder returns a Builder with the default sketch capacities.
func NewBuilder() *Builder { return NewBuilderSized(DefaultKMVK, DefaultHeavyK) }

// NewBuilderSized returns a Builder with explicit KMV and heavy-hitter
// capacities (minimum 1 each).
func NewBuilderSized(kmvK, heavyK int) *Builder {
	if kmvK < 1 {
		kmvK = 1
	}
	if heavyK < 1 {
		heavyK = 1
	}
	return &Builder{
		sum: Summary{
			Version: Version,
			Source:  SourceStream,
			Min:     math.MaxInt64,
			Max:     math.MinInt64,
			KMVK:    kmvK,
			HeavyK:  heavyK,
		},
		kmv:    newKMVHeap(kmvK),
		heavy:  make([]HeavyHit, 0, heavyK),
		heavyK: heavyK,
	}
}

// Add feeds one value into the builder.
func (b *Builder) Add(v int64) { b.AddN(v, 1) }

// AddN feeds a value with multiplicity n (a histogram entry). The KMV
// sketch is count-insensitive, so one hash insertion covers all n copies.
func (b *Builder) AddN(v int64, n int64) {
	if n <= 0 {
		return
	}
	b.sum.Count += n
	b.sum.Observed += n
	if v < b.sum.Min {
		b.sum.Min = v
	}
	if v > b.sum.Max {
		b.sum.Max = v
	}
	f := float64(v)
	b.sum.Sum += f * float64(n)
	b.sum.Sum2 += f * f * float64(n)
	b.kmv.insert(Hash(v))
	b.addHeavy(v, n)
}

// addHeavy is the space-saving update: tracked values increment; untracked
// values claim a free slot, or evict the minimum counter inheriting its
// count as error. One scan of the heavyK counters finds both v and that
// minimum, so no value → slot map is kept.
func (b *Builder) addHeavy(v int64, n int64) {
	min := 0
	for i := range b.heavy {
		h, m := &b.heavy[i], &b.heavy[min]
		if h.Value == v {
			h.Count += n
			return
		}
		// The minimum-count entry, ties broken by value for determinism.
		if h.Count < m.Count || (h.Count == m.Count && h.Value < m.Value) {
			min = i
		}
	}
	if len(b.heavy) < b.heavyK {
		b.heavy = append(b.heavy, HeavyHit{Value: v, Count: n})
		return
	}
	evicted := b.heavy[min]
	b.heavy[min] = HeavyHit{Value: v, Count: evicted.Count + n, Err: evicted.Count}
	if evicted.Count > b.heavyFloor {
		b.heavyFloor = evicted.Count
	}
}

// Summary finalizes and returns the built summary. The builder may keep
// accumulating afterwards; each call snapshots the current state.
func (b *Builder) Summary() *Summary {
	s := b.sum // copy
	s.KMV = b.kmv.sorted()
	s.Heavy = append(make([]HeavyHit, 0, len(b.heavy)), b.heavy...)
	sortHeavy(s.Heavy)
	s.HeavyFloor = b.heavyFloor
	return &s
}

// sortHeavy orders counters by descending count, ascending value on ties.
func sortHeavy(hits []HeavyHit) {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Count != hits[j].Count {
			return hits[i].Count > hits[j].Count
		}
		return hits[i].Value < hits[j].Value
	})
}

// kmvHeap keeps the k smallest distinct hashes seen. It is a max-heap over
// at most k entries so the current threshold (largest kept hash) is O(1).
type kmvHeap struct {
	k    int
	h    []uint64
	seen map[uint64]struct{}
}

func newKMVHeap(k int) *kmvHeap {
	return &kmvHeap{k: k, seen: make(map[uint64]struct{}, k)}
}

func (m *kmvHeap) insert(hash uint64) {
	// A full heap turns most of a stream away on one comparison: a hash at or
	// above the threshold is either the threshold itself or not kept, so the
	// seen lookup is only for hashes that could enter.
	if len(m.h) == m.k && hash >= m.h[0] {
		return
	}
	if _, dup := m.seen[hash]; dup {
		return
	}
	m.seen[hash] = struct{}{}
	if len(m.h) < m.k {
		m.h = append(m.h, hash)
		m.up(len(m.h) - 1)
		return
	}
	delete(m.seen, m.h[0])
	m.h[0] = hash
	m.down(0)
}

func (m *kmvHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if m.h[p] >= m.h[i] {
			break
		}
		m.h[p], m.h[i] = m.h[i], m.h[p]
		i = p
	}
}

func (m *kmvHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(m.h) && m.h[l] > m.h[big] {
			big = l
		}
		if r < len(m.h) && m.h[r] > m.h[big] {
			big = r
		}
		if big == i {
			return
		}
		m.h[i], m.h[big] = m.h[big], m.h[i]
		i = big
	}
}

func (m *kmvHeap) sorted() []uint64 {
	out := append([]uint64(nil), m.h...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DistinctEstimate returns the KMV distinct-value estimate. An unsaturated
// sketch holds every distinct hash seen and the answer is exact; a
// saturated sketch uses the unbiased estimator (K-1)/U_(K) where U_(K) is
// the K-th smallest hash scaled to (0,1].
func (s *Summary) DistinctEstimate() float64 {
	n := len(s.KMV)
	if n == 0 {
		return 0
	}
	if n < s.KMVK {
		return float64(n) // unsaturated: exact
	}
	kth := s.KMV[n-1]
	u := (float64(kth) + 1) / math.Pow(2, 64)
	if u <= 0 {
		return float64(n)
	}
	return float64(n-1) / u
}

// ProvablyOutside reports whether the summary proves that no observed value
// lies inside [lo, hi]. An empty summary (Observed == 0) proves nothing —
// the companion sample may be unreadable, and pruning on it would change
// error behavior — so it never prunes.
func (s *Summary) ProvablyOutside(lo, hi int64) bool {
	return s.Observed > 0 && (s.Max < lo || s.Min > hi)
}

// RangeOverlap estimates the fraction of the partition's values that fall
// inside [lo, hi] by interval intersection under a uniform-spread
// assumption over [Min, Max]. It is a planning weight in [0, 1], not a
// proof: 0 only when ProvablyOutside holds.
func (s *Summary) RangeOverlap(lo, hi int64) float64 {
	if s.Observed == 0 || lo > hi {
		return 1 // unknown contributes full weight
	}
	if s.Max < lo || s.Min > hi {
		return 0
	}
	span := float64(s.Max) - float64(s.Min) + 1
	iLo, iHi := s.Min, s.Max
	if lo > iLo {
		iLo = lo
	}
	if hi < iHi {
		iHi = hi
	}
	frac := (float64(iHi) - float64(iLo) + 1) / span
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// TopK returns the up-to-k heaviest counters (descending count). Each entry
// bounds the value's true observed count within [Count-Err, Count].
func (s *Summary) TopK(k int) []HeavyHit {
	if k > len(s.Heavy) {
		k = len(s.Heavy)
	}
	out := append([]HeavyHit(nil), s.Heavy[:k]...)
	return out
}

// Merge combines two summaries into a summary of the union of their
// partitions. Inputs are not modified. Merging is commutative and, up to
// heavy-hitter truncation ties, associative:
//
//   - counts, moments, min/max add/extend exactly;
//   - KMV union keeps the k smallest of the combined hash sets with
//     k = min(a.KMVK, b.KMVK), exactly the sketch a single pass over the
//     union would have produced;
//   - space-saving counters sum over the entry union, charging each side's
//     Floor to values it did not track, with the output Floor the sum of
//     the input Floors (error bounds remain valid upper bounds).
//
// The result is SourceSample if either input is, and Exhaustive only if
// both are.
func Merge(a, b *Summary) *Summary {
	if a == nil {
		return b.clone()
	}
	if b == nil {
		return a.clone()
	}
	out := &Summary{
		Version:    Version,
		Source:     mergeSource(a.Source, b.Source),
		Exhaustive: a.Exhaustive && b.Exhaustive,
		Count:      a.Count + b.Count,
		Observed:   a.Observed + b.Observed,
		Min:        minI64(a.Min, b.Min),
		Max:        maxI64(a.Max, b.Max),
		Sum:        a.Sum + b.Sum,
		Sum2:       a.Sum2 + b.Sum2,
		KMVK:       minInt(a.KMVK, b.KMVK),
		HeavyK:     minInt(a.HeavyK, b.HeavyK),
	}
	out.KMV = unionKMV(a.KMV, b.KMV, out.KMVK)

	// Space-saving merge: union of entries; a value missing from one side
	// could have occurred up to that side's Floor times there.
	merged := make(map[int64]*HeavyHit, len(a.Heavy)+len(b.Heavy))
	for _, h := range a.Heavy {
		hh := h
		merged[h.Value] = &hh
	}
	for _, h := range b.Heavy {
		if m, ok := merged[h.Value]; ok {
			m.Count += h.Count
			m.Err += h.Err
		} else {
			hh := h
			hh.Count += a.HeavyFloor
			hh.Err += a.HeavyFloor
			merged[h.Value] = &hh
		}
	}
	for _, h := range a.Heavy {
		if _, inB := findHeavy(b.Heavy, h.Value); !inB {
			m := merged[h.Value]
			m.Count += b.HeavyFloor
			m.Err += b.HeavyFloor
		}
	}
	hits := make([]HeavyHit, 0, len(merged))
	for _, h := range merged {
		hits = append(hits, *h)
	}
	sortHeavy(hits)
	out.HeavyFloor = a.HeavyFloor + b.HeavyFloor
	if len(hits) > out.HeavyK {
		// Truncated counters raise the floor: a dropped value may have
		// occurred up to its merged Count times.
		for _, h := range hits[out.HeavyK:] {
			if h.Count > out.HeavyFloor {
				out.HeavyFloor = h.Count
			}
		}
		hits = hits[:out.HeavyK]
	}
	out.Heavy = hits
	return out
}

// MergeAll folds a slice of summaries; nil entries are skipped. Returns nil
// when every input is nil.
func MergeAll(sums ...*Summary) *Summary {
	var acc *Summary
	for _, s := range sums {
		if s == nil {
			continue
		}
		if acc == nil {
			acc = s.clone()
			continue
		}
		acc = Merge(acc, s)
	}
	return acc
}

func mergeSource(a, b string) string {
	if a == SourceSample || b == SourceSample {
		return SourceSample
	}
	return SourceStream
}

func findHeavy(hits []HeavyHit, v int64) (HeavyHit, bool) {
	for _, h := range hits {
		if h.Value == v {
			return h, true
		}
	}
	return HeavyHit{}, false
}

// unionKMV merges two ascending hash slices keeping the k smallest
// distinct hashes.
func unionKMV(a, b []uint64, k int) []uint64 {
	out := make([]uint64, 0, minInt(len(a)+len(b), k))
	i, j := 0, 0
	var last uint64
	for (i < len(a) || j < len(b)) && len(out) < k {
		var v uint64
		switch {
		case i >= len(a):
			v = b[j]
			j++
		case j >= len(b):
			v = a[i]
			i++
		case a[i] <= b[j]:
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		if len(out) > 0 && v == last {
			continue
		}
		out = append(out, v)
		last = v
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func (s *Summary) clone() *Summary {
	if s == nil {
		return nil
	}
	c := *s
	c.KMV = append([]uint64(nil), s.KMV...)
	c.Heavy = append([]HeavyHit(nil), s.Heavy...)
	return &c
}

// Clone returns a deep copy of the summary.
func (s *Summary) Clone() *Summary { return s.clone() }

// Validate checks internal consistency: version, capacities, ordering, and
// moment sanity. Corrupt sidecars must never prune, so loaders call this
// before trusting a summary.
func (s *Summary) Validate() error {
	if s == nil {
		return fmt.Errorf("sketch: nil summary")
	}
	if s.Version != Version {
		return fmt.Errorf("sketch: version %d, want %d", s.Version, Version)
	}
	if s.Source != SourceStream && s.Source != SourceSample {
		return fmt.Errorf("sketch: unknown source %q", s.Source)
	}
	if s.Count < 0 || s.Observed < 0 {
		return fmt.Errorf("sketch: negative count (count=%d observed=%d)", s.Count, s.Observed)
	}
	if s.Observed > s.Count {
		return fmt.Errorf("sketch: observed %d exceeds count %d", s.Observed, s.Count)
	}
	if s.KMVK < 1 || s.HeavyK < 1 {
		return fmt.Errorf("sketch: invalid capacities (kmv_k=%d heavy_k=%d)", s.KMVK, s.HeavyK)
	}
	if s.Observed == 0 {
		if len(s.KMV) != 0 || len(s.Heavy) != 0 {
			return fmt.Errorf("sketch: empty summary carries sketch content")
		}
		return nil
	}
	if s.Min > s.Max {
		return fmt.Errorf("sketch: min %d > max %d with observed %d", s.Min, s.Max, s.Observed)
	}
	if len(s.KMV) == 0 {
		return fmt.Errorf("sketch: non-empty summary with empty KMV")
	}
	if len(s.KMV) > s.KMVK {
		return fmt.Errorf("sketch: KMV holds %d hashes, capacity %d", len(s.KMV), s.KMVK)
	}
	for i := 1; i < len(s.KMV); i++ {
		if s.KMV[i] <= s.KMV[i-1] {
			return fmt.Errorf("sketch: KMV not strictly ascending at %d", i)
		}
	}
	if len(s.Heavy) > s.HeavyK {
		return fmt.Errorf("sketch: heavy list holds %d entries, capacity %d", len(s.Heavy), s.HeavyK)
	}
	for i, h := range s.Heavy {
		if h.Count <= 0 || h.Err < 0 || h.Err > h.Count {
			return fmt.Errorf("sketch: heavy entry %d has invalid counts (count=%d err=%d)", i, h.Count, h.Err)
		}
		if i > 0 && s.Heavy[i-1].Count < h.Count {
			return fmt.Errorf("sketch: heavy list not sorted by count at %d", i)
		}
	}
	if s.HeavyFloor < 0 {
		return fmt.Errorf("sketch: negative heavy floor %d", s.HeavyFloor)
	}
	if math.IsNaN(s.Sum) || math.IsNaN(s.Sum2) || math.IsInf(s.Sum, 0) || math.IsInf(s.Sum2, 0) {
		return fmt.Errorf("sketch: non-finite moments")
	}
	return nil
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
