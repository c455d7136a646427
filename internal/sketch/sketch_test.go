package sketch

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
)

func buildFrom(values []int64) *Summary {
	b := NewBuilder()
	for _, v := range values {
		b.Add(v)
	}
	return b.Summary()
}

func TestBuilderBasics(t *testing.T) {
	s := buildFrom([]int64{5, 3, 9, 3, 7})
	if s.Count != 5 || s.Observed != 5 {
		t.Fatalf("count=%d observed=%d, want 5,5", s.Count, s.Observed)
	}
	if s.Min != 3 || s.Max != 9 {
		t.Fatalf("min=%d max=%d, want 3,9", s.Min, s.Max)
	}
	if want := 5.0 + 3 + 9 + 3 + 7; s.Sum != want {
		t.Fatalf("sum=%v want %v", s.Sum, want)
	}
	if got := s.DistinctEstimate(); got != 4 {
		t.Fatalf("unsaturated distinct=%v want 4 (exact)", got)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewBuilder().Summary()
	if err := s.Validate(); err != nil {
		t.Fatalf("empty summary invalid: %v", err)
	}
	if s.ProvablyOutside(math.MinInt64, math.MaxInt64) {
		t.Fatal("empty summary must never prune")
	}
	if got := s.DistinctEstimate(); got != 0 {
		t.Fatalf("empty distinct=%v", got)
	}
	// Merging with an empty summary is an identity on bounds.
	other := buildFrom([]int64{1, 2, 3})
	m := Merge(s, other)
	if m.Min != 1 || m.Max != 3 || m.Count != 3 {
		t.Fatalf("empty-merge changed bounds: %+v", m)
	}
}

func TestProvablyOutsideAndOverlap(t *testing.T) {
	s := buildFrom([]int64{100, 150, 200})
	cases := []struct {
		lo, hi  int64
		outside bool
	}{
		{0, 99, true},
		{201, 500, true},
		{0, 100, false},
		{200, 300, false},
		{120, 130, false}, // min/max cannot prove interior gaps
	}
	for _, c := range cases {
		if got := s.ProvablyOutside(c.lo, c.hi); got != c.outside {
			t.Errorf("ProvablyOutside(%d,%d)=%v want %v", c.lo, c.hi, got, c.outside)
		}
	}
	if w := s.RangeOverlap(0, 99); w != 0 {
		t.Errorf("overlap outside=%v want 0", w)
	}
	if w := s.RangeOverlap(100, 200); w != 1 {
		t.Errorf("overlap full=%v want 1", w)
	}
	if w := s.RangeOverlap(100, 149); w <= 0 || w >= 1 {
		t.Errorf("partial overlap=%v want in (0,1)", w)
	}
}

// TestKMVUnionMatchesDirect is the KMV merge law: the union of two sketches
// equals the sketch built in one pass over the concatenated stream.
func TestKMVUnionMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := make([]int64, 5000)
	b := make([]int64, 5000)
	for i := range a {
		a[i] = rng.Int63n(20000)
		b[i] = rng.Int63n(20000) // overlapping value domains
	}
	sa, sb := buildFrom(a), buildFrom(b)
	direct := buildFrom(append(append([]int64(nil), a...), b...))
	merged := Merge(sa, sb)
	if len(merged.KMV) != len(direct.KMV) {
		t.Fatalf("KMV sizes differ: merged %d direct %d", len(merged.KMV), len(direct.KMV))
	}
	for i := range merged.KMV {
		if merged.KMV[i] != direct.KMV[i] {
			t.Fatalf("KMV[%d]: merged %d direct %d", i, merged.KMV[i], direct.KMV[i])
		}
	}
	if merged.Count != direct.Count || merged.Min != direct.Min || merged.Max != direct.Max ||
		merged.Sum != direct.Sum {
		t.Fatalf("scalar merge mismatch: merged %+v direct %+v", merged, direct)
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged invalid: %v", err)
	}
}

func TestDistinctEstimateAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const distinct = 50000
	b := NewBuilder()
	for i := 0; i < distinct; i++ {
		v := int64(i)
		// Feed duplicates too; KMV must be count-insensitive.
		for r := 0; r <= rng.Intn(3); r++ {
			b.Add(v)
		}
	}
	s := b.Summary()
	if !s.Saturated() {
		t.Fatal("sketch should saturate at 50k distinct")
	}
	est := s.DistinctEstimate()
	relErr := math.Abs(est-distinct) / distinct
	// RSE ≈ 1/sqrt(K-2) ≈ 6.3%; allow 4 sigma.
	if relErr > 0.25 {
		t.Fatalf("distinct estimate %v for true %d (rel err %.3f)", est, distinct, relErr)
	}
}

func TestHeavyHittersBounds(t *testing.T) {
	// Zipf-ish stream: value v occurs 10000/v times for v in 1..200.
	b := NewBuilderSized(DefaultKMVK, 8)
	truth := map[int64]int64{}
	for v := int64(1); v <= 200; v++ {
		n := 10000 / v
		truth[v] = n
		b.AddN(v, n)
	}
	s := b.Summary()
	if err := s.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	top := s.TopK(4)
	if len(top) != 4 {
		t.Fatalf("topk returned %d entries", len(top))
	}
	// Space-saving guarantee: estimated count bounds the true count from
	// above, and undershoots by at most Err.
	for _, h := range top {
		tc := truth[h.Value]
		if h.Count < tc {
			t.Errorf("value %d: estimate %d below truth %d", h.Value, h.Count, tc)
		}
		if h.Count-h.Err > tc {
			t.Errorf("value %d: guaranteed count %d exceeds truth %d", h.Value, h.Count-h.Err, tc)
		}
	}
	// The top-1 value (v=1, 10000 occurrences) must be identified.
	if top[0].Value != 1 {
		t.Errorf("top-1 value = %d, want 1", top[0].Value)
	}
}

func TestHeavyMergeBounds(t *testing.T) {
	// Two streams with different heavy values; merged bounds must still
	// hold as upper bounds on true combined counts.
	b1 := NewBuilderSized(64, 4)
	b2 := NewBuilderSized(64, 4)
	truth := map[int64]int64{}
	add := func(b *Builder, v, n int64) {
		b.AddN(v, n)
		truth[v] += n
	}
	add(b1, 1, 500)
	add(b1, 2, 300)
	add(b1, 3, 100)
	add(b1, 4, 80)
	add(b1, 5, 60) // evicts: floor rises
	add(b2, 1, 200)
	add(b2, 6, 400)
	add(b2, 7, 90)
	add(b2, 8, 70)
	add(b2, 9, 50)
	m := Merge(b1.Summary(), b2.Summary())
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	for _, h := range m.Heavy {
		if h.Count < truth[h.Value] {
			t.Errorf("merged value %d: count %d below truth %d", h.Value, h.Count, truth[h.Value])
		}
	}
	// Floor bounds every untracked value's true count.
	tracked := map[int64]bool{}
	for _, h := range m.Heavy {
		tracked[h.Value] = true
	}
	for v, tc := range truth {
		if !tracked[v] && tc > m.HeavyFloor {
			t.Errorf("untracked value %d has true count %d > floor %d", v, tc, m.HeavyFloor)
		}
	}
}

func TestMergeCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]int64, 2000)
	b := make([]int64, 3000)
	for i := range a {
		a[i] = rng.Int63n(5000)
	}
	for i := range b {
		b[i] = rng.Int63n(5000)
	}
	sa, sb := buildFrom(a), buildFrom(b)
	ab, ba := Merge(sa, sb), Merge(sb, sa)
	ja, _ := json.Marshal(ab)
	jb, _ := json.Marshal(ba)
	if string(ja) != string(jb) {
		t.Fatalf("merge not commutative:\n%s\n%s", ja, jb)
	}
}

func TestMergeAll(t *testing.T) {
	if MergeAll(nil, nil) != nil {
		t.Fatal("MergeAll of nils should be nil")
	}
	s := buildFrom([]int64{1, 2})
	m := MergeAll(nil, s, nil)
	if m.Count != 2 {
		t.Fatalf("MergeAll skipped wrong entries: %+v", m)
	}
	// MergeAll must not alias its inputs.
	m.Min = -99
	if s.Min == -99 {
		t.Fatal("MergeAll aliased input summary")
	}
}

func TestFromSample(t *testing.T) {
	h := histogram.New[int64](histogram.SizeModel{ValueBytes: 8, CountBytes: 8})
	h.Insert(10, 3)
	h.Insert(20, 1)
	s := &core.Sample[int64]{Kind: core.ReservoirKind, Hist: h, ParentSize: 40, Q: 1}
	sum := FromSample(s)
	if sum.Source != SourceSample {
		t.Fatalf("source=%q", sum.Source)
	}
	if sum.Count != 40 || sum.Observed != 4 {
		t.Fatalf("count=%d observed=%d, want 40,4", sum.Count, sum.Observed)
	}
	if sum.Min != 10 || sum.Max != 20 {
		t.Fatalf("min=%d max=%d", sum.Min, sum.Max)
	}
	if sum.Exhaustive {
		t.Fatal("reservoir sample marked exhaustive")
	}
	// Heavy counts scale to population: 3 copies at n=4, N=40 → 30.
	if sum.Heavy[0].Value != 10 || sum.Heavy[0].Count != 30 {
		t.Fatalf("scaled heavy: %+v", sum.Heavy)
	}
	if err := sum.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}

	// Exhaustive sample stamps the flag.
	he := histogram.New[int64](histogram.SizeModel{ValueBytes: 8, CountBytes: 8})
	he.Insert(1, 2)
	se := &core.Sample[int64]{Kind: core.Exhaustive, Hist: he, ParentSize: 2, Q: 1}
	if !FromSample(se).Exhaustive {
		t.Fatal("exhaustive sample not marked")
	}

	// Empty sample → empty summary that never prunes.
	hz := histogram.New[int64](histogram.SizeModel{ValueBytes: 8, CountBytes: 8})
	sz := &core.Sample[int64]{Kind: core.ReservoirKind, Hist: hz, ParentSize: 10, Q: 1}
	sumz := FromSample(sz)
	if sumz.Observed != 0 || sumz.ProvablyOutside(0, 0) {
		t.Fatalf("empty-sample summary prunes: %+v", sumz)
	}
	if err := sumz.Validate(); err != nil {
		t.Fatalf("empty-sample summary invalid: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s := buildFrom([]int64{5, -3, 100, 5, 7})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped summary invalid: %v", err)
	}
	data2, _ := json.Marshal(&back)
	if string(data) != string(data2) {
		t.Fatalf("round trip not stable:\n%s\n%s", data, data2)
	}
}

func TestValidateRejectsCorrupt(t *testing.T) {
	good := buildFrom([]int64{1, 2, 3})
	cases := map[string]func(*Summary){
		"version":     func(s *Summary) { s.Version = 99 },
		"source":      func(s *Summary) { s.Source = "mystery" },
		"minmax":      func(s *Summary) { s.Min, s.Max = 5, 1 },
		"kmv-order":   func(s *Summary) { s.KMV[0], s.KMV[1] = s.KMV[1], s.KMV[0] },
		"kmv-over":    func(s *Summary) { s.KMVK = 1 },
		"negative":    func(s *Summary) { s.Count = -1 },
		"observed":    func(s *Summary) { s.Observed = s.Count + 1 },
		"heavy-count": func(s *Summary) { s.Heavy[0].Count = 0 },
		"nan":         func(s *Summary) { s.Sum = math.NaN() },
	}
	for name, corrupt := range cases {
		s := good.Clone()
		corrupt(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: corrupt summary validated", name)
		}
	}
	var nilSum *Summary
	if err := nilSum.Validate(); err == nil {
		t.Error("nil summary validated")
	}
}

func TestUnionKMVTruncates(t *testing.T) {
	// Union with mismatched capacities keeps min(K) smallest.
	ba := NewBuilderSized(4, 4)
	bb := NewBuilderSized(8, 4)
	for v := int64(0); v < 100; v++ {
		ba.Add(v)
		bb.Add(v + 50)
	}
	m := Merge(ba.Summary(), bb.Summary())
	if m.KMVK != 4 || len(m.KMV) != 4 {
		t.Fatalf("k=%d len=%d, want 4,4", m.KMVK, len(m.KMV))
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// refBuilder is the builder as it stood before the heavy-hitter table became
// a slice and the KMV heap learned to test its threshold first: a map of
// heap-allocated counters walked for its minimum on every unseen value, and a
// seen lookup on every hash. It is kept as the reference the fast builder's
// output is compared against, byte for byte.
type refBuilder struct {
	sum        Summary
	k          int
	kmv        []uint64 // max-heap
	seen       map[uint64]struct{}
	heavy      map[int64]*HeavyHit
	heavyK     int
	heavyFloor int64
}

func newRefBuilder(kmvK, heavyK int) *refBuilder {
	proto := NewBuilderSized(kmvK, heavyK).sum // the same empty summary, clamps included
	return &refBuilder{sum: proto, k: proto.KMVK, seen: map[uint64]struct{}{},
		heavy: map[int64]*HeavyHit{}, heavyK: proto.HeavyK}
}

func (b *refBuilder) AddN(v, n int64) {
	if n <= 0 {
		return
	}
	b.sum.Count += n
	b.sum.Observed += n
	b.sum.Min = minI64(b.sum.Min, v)
	b.sum.Max = maxI64(b.sum.Max, v)
	f := float64(v)
	b.sum.Sum += f * float64(n)
	b.sum.Sum2 += f * f * float64(n)
	b.insert(Hash(v))
	b.addHeavy(v, n)
}

func (b *refBuilder) addHeavy(v, n int64) {
	if h, ok := b.heavy[v]; ok {
		h.Count += n
		return
	}
	if len(b.heavy) < b.heavyK {
		b.heavy[v] = &HeavyHit{Value: v, Count: n}
		return
	}
	var min *HeavyHit
	for _, h := range b.heavy {
		if min == nil || h.Count < min.Count || (h.Count == min.Count && h.Value < min.Value) {
			min = h
		}
	}
	delete(b.heavy, min.Value)
	b.heavy[v] = &HeavyHit{Value: v, Count: min.Count + n, Err: min.Count}
	if min.Count > b.heavyFloor {
		b.heavyFloor = min.Count
	}
}

func (b *refBuilder) insert(hash uint64) {
	if _, dup := b.seen[hash]; dup {
		return
	}
	m := &kmvHeap{k: b.k, h: b.kmv}
	defer func() { b.kmv = m.h }()
	if len(m.h) < m.k {
		b.seen[hash] = struct{}{}
		m.h = append(m.h, hash)
		m.up(len(m.h) - 1)
		return
	}
	if hash >= m.h[0] {
		return
	}
	delete(b.seen, m.h[0])
	b.seen[hash] = struct{}{}
	m.h[0] = hash
	m.down(0)
}

func (b *refBuilder) Summary() *Summary {
	s := b.sum
	s.KMV = (&kmvHeap{h: b.kmv}).sorted()
	s.Heavy = make([]HeavyHit, 0, len(b.heavy))
	for _, h := range b.heavy {
		s.Heavy = append(s.Heavy, *h)
	}
	sortHeavy(s.Heavy)
	s.HeavyFloor = b.heavyFloor
	return &s
}

// TestBuilderMatchesReference: the fast builder changes how the summary is
// computed, never what it is — stored sidecars, content hashes and served
// answers all hang on that.
func TestBuilderMatchesReference(t *testing.T) {
	type item struct{ v, n int64 }
	rng := rand.New(rand.NewSource(20))
	zipf := rand.NewZipf(rng, 1.2, 1, 1<<20)
	streams := map[string][]item{}
	for i := int64(0); i < 20000; i++ {
		streams["all-distinct"] = append(streams["all-distinct"], item{i*7919 - 50000, 1})
		streams["zipf"] = append(streams["zipf"], item{int64(zipf.Uint64()), 1})
		streams["few-distinct"] = append(streams["few-distinct"], item{rng.Int63n(12), 1})
		// Histogram entries as FromSample feeds them: scaled multiplicities,
		// ties in count, the odd non-positive one (ignored).
		streams["multiplicity"] = append(streams["multiplicity"], item{rng.Int63n(3000), rng.Int63n(9) - 1})
	}
	for name, stream := range streams {
		for _, heavyK := range []int{1, 16, 64} {
			for _, kmvK := range []int{1, 256} {
				fast, ref := NewBuilderSized(kmvK, heavyK), newRefBuilder(kmvK, heavyK)
				for i, it := range stream {
					fast.AddN(it.v, it.n)
					ref.AddN(it.v, it.n)
					if i != 100 && i != len(stream)-1 { // mid-stream snapshots count too
						continue
					}
					got, _ := json.Marshal(fast.Summary())
					want, _ := json.Marshal(ref.Summary())
					if string(got) != string(want) {
						t.Fatalf("%s heavyK=%d kmvK=%d after %d values:\n got %s\nwant %s", name, heavyK, kmvK, i+1, got, want)
					}
				}
			}
		}
	}
}
