package histogram

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyHistogram(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	if h.Size() != 0 || h.Distinct() != 0 || h.Footprint() != 0 {
		t.Fatalf("empty: %v", h)
	}
	if h.Count(42) != 0 {
		t.Fatal("Count on empty histogram != 0")
	}
	if len(h.Expand()) != 0 {
		t.Fatal("Expand on empty histogram not empty")
	}
}

func TestInsertSingletonAndPair(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(7, 1)
	if h.Footprint() != 8 {
		t.Fatalf("singleton footprint = %d, want 8", h.Footprint())
	}
	h.Insert(7, 1)
	if h.Footprint() != 12 {
		t.Fatalf("pair footprint = %d, want 12", h.Footprint())
	}
	h.Insert(7, 10)
	if h.Footprint() != 12 {
		t.Fatalf("count growth changed footprint: %d", h.Footprint())
	}
	if h.Size() != 12 || h.Distinct() != 1 || h.Count(7) != 12 {
		t.Fatalf("state: size=%d distinct=%d count=%d", h.Size(), h.Distinct(), h.Count(7))
	}
}

func TestNewSized(t *testing.T) {
	h := NewSized[int64](DefaultSizeModel, 4)
	if h.Size() != 0 || h.Distinct() != 0 || h.Footprint() != 0 {
		t.Fatalf("empty sized histogram: %v", h)
	}
	// The reservation is a hint, not a bound, and a negative one is ignored.
	g := NewSized[int64](DefaultSizeModel, -1)
	for v := int64(0); v < 10; v++ {
		g.Insert(v, 1)
	}
	ref := New[int64](DefaultSizeModel)
	for v := int64(0); v < 10; v++ {
		ref.Insert(v, 1)
	}
	if !g.Equal(ref) || g.Footprint() != ref.Footprint() {
		t.Fatalf("sized %v differs from plain %v", g, ref)
	}
}

func TestInsertPanicsOnNonPositive(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(v, 0) did not panic")
		}
	}()
	h.Insert(1, 0)
}

func TestRemove(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(1, 3)
	h.Insert(2, 1)
	h.Remove(1, 2)
	if h.Count(1) != 1 || h.Size() != 2 {
		t.Fatalf("after partial remove: count=%d size=%d", h.Count(1), h.Size())
	}
	if h.Footprint() != 16 { // two singletons
		t.Fatalf("footprint = %d, want 16", h.Footprint())
	}
	h.Remove(1, 1)
	if h.Count(1) != 0 || h.Distinct() != 1 {
		t.Fatalf("after full remove: count=%d distinct=%d", h.Count(1), h.Distinct())
	}
}

func TestRemoveTooManyPanics(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Remove of absent occurrences did not panic")
		}
	}()
	h.Remove(1, 3)
}

func TestSetCount(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(10, 5)
	h.Insert(20, 1)
	h.Insert(30, 2)
	// Find entry for 10 and cut it to 1.
	for i := 0; i < h.Distinct(); i++ {
		if h.Entry(i).Value == 10 {
			h.SetCount(i, 1)
		}
	}
	if h.Count(10) != 1 || h.Size() != 4 {
		t.Fatalf("SetCount: count=%d size=%d", h.Count(10), h.Size())
	}
	// Drop entry for 30.
	for i := 0; i < h.Distinct(); i++ {
		if h.Entry(i).Value == 30 {
			h.SetCount(i, 0)
		}
	}
	if h.Count(30) != 0 || h.Distinct() != 2 || h.Size() != 2 {
		t.Fatalf("SetCount to zero: distinct=%d size=%d", h.Distinct(), h.Size())
	}
}

func TestSetCountPanics(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(1, 1)
	for _, f := range []func(){
		func() { h.SetCount(5, 1) },
		func() { h.SetCount(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("SetCount misuse did not panic")
				}
			}()
			f()
		}()
	}
}

func TestExpandRoundTrip(t *testing.T) {
	h := New[string](SizeModel{ValueBytes: 16, CountBytes: 4})
	h.Insert("a", 2)
	h.Insert("b", 1)
	h.Insert("c", 3)
	bag := h.Expand()
	if len(bag) != 6 {
		t.Fatalf("expanded %d values, want 6", len(bag))
	}
	h2 := FromBag(h.Model(), bag)
	if !h.Equal(h2) {
		t.Fatalf("round trip lost data: %v vs %v", h, h2)
	}
}

func TestJoin(t *testing.T) {
	m := DefaultSizeModel
	h1 := New[int64](m)
	h1.Insert(1, 2)
	h1.Insert(2, 1)
	h2 := New[int64](m)
	h2.Insert(2, 3)
	h2.Insert(3, 1)
	want := h1.JoinedFootprint(h2)
	h1.Join(h2)
	if h1.Count(1) != 2 || h1.Count(2) != 4 || h1.Count(3) != 1 {
		t.Fatalf("join counts wrong: %v", h1.Entries())
	}
	if h1.Size() != 7 {
		t.Fatalf("join size = %d", h1.Size())
	}
	if h1.Footprint() != want {
		t.Fatalf("JoinedFootprint predicted %d, actual %d", want, h1.Footprint())
	}
	// h2 must be untouched.
	if h2.Size() != 4 || h2.Count(2) != 3 {
		t.Fatalf("join mutated its argument: %v", h2)
	}
}

func TestJoinedFootprintSingletonUpgrade(t *testing.T) {
	m := DefaultSizeModel
	h1 := New[int64](m)
	h1.Insert(1, 1) // singleton: 8 bytes
	h2 := New[int64](m)
	h2.Insert(1, 1) // joining makes (1,2): 12 bytes
	if got := h1.JoinedFootprint(h2); got != 12 {
		t.Fatalf("JoinedFootprint = %d, want 12", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(1, 2)
	c := h.Clone()
	c.Insert(1, 5)
	c.Insert(9, 1)
	if h.Count(1) != 2 || h.Count(9) != 0 {
		t.Fatalf("clone mutation leaked into original: %v", h.Entries())
	}
	if !h.Equal(h) || h.Equal(c) {
		t.Fatal("Equal misbehaves")
	}
}

func TestReset(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(1, 5)
	h.Insert(2, 1)
	h.Reset()
	if h.Size() != 0 || h.Distinct() != 0 || h.Footprint() != 0 || h.Count(1) != 0 {
		t.Fatalf("Reset left state: %v", h)
	}
	h.Insert(3, 1)
	if h.Size() != 1 || h.Count(3) != 1 {
		t.Fatal("histogram unusable after Reset")
	}
}

func TestEachAndEntries(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	h.Insert(5, 2)
	h.Insert(6, 1)
	var total int64
	h.Each(func(v int64, c int64) { total += c })
	if total != 3 {
		t.Fatalf("Each visited %d elements", total)
	}
	es := h.Entries()
	if len(es) != 2 {
		t.Fatalf("Entries len = %d", len(es))
	}
	es[0].Count = 999 // must be a copy
	if h.Size() != 3 {
		t.Fatal("Entries exposed internal state")
	}
}

func TestSortedEntries(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	for _, v := range []int64{5, 3, 9, 1} {
		h.Insert(v, 1)
	}
	es := h.SortedEntries(func(a, b int64) bool { return a < b })
	if !sort.SliceIsSorted(es, func(i, j int) bool { return es[i].Value < es[j].Value }) {
		t.Fatalf("not sorted: %v", es)
	}
}

func TestMaxValues(t *testing.T) {
	if got := DefaultSizeModel.MaxValues(65536); got != 8192 {
		t.Fatalf("MaxValues(64KB) = %d, want 8192 (the paper's setup)", got)
	}
}

func TestFootprintAccountingProperty(t *testing.T) {
	// Property: after any sequence of inserts, the incremental footprint
	// equals the from-scratch recomputation.
	check := func(values []uint8) bool {
		h := New[int64](DefaultSizeModel)
		for _, v := range values {
			h.Insert(int64(v%16), 1)
		}
		var want int64
		h.Each(func(_ int64, c int64) { want += DefaultSizeModel.PairBytes(c) })
		return h.Footprint() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeInvariantUnderRemoveProperty(t *testing.T) {
	// Property: size always equals the sum of entry counts after interleaved
	// inserts and removes.
	check := func(ops []uint16) bool {
		h := New[int64](DefaultSizeModel)
		for _, op := range ops {
			v := int64(op % 8)
			if op%3 == 0 && h.Count(v) > 0 {
				h.Remove(v, 1)
			} else {
				h.Insert(v, int64(op%5)+1)
			}
		}
		var want int64
		h.Each(func(_ int64, c int64) { want += c })
		return h.Size() == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertDistinct(b *testing.B) {
	h := New[int64](DefaultSizeModel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(int64(i), 1)
	}
}

func BenchmarkInsertDuplicate(b *testing.B) {
	h := New[int64](DefaultSizeModel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Insert(int64(i%1024), 1)
	}
}
