package histogram

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// eager is the histogram as it was while the index was a field every
// constructor filled: the reference the lazy index is held to. It keeps the
// entry order rules — append on a new value, swap-with-last on removal —
// because entry order is what seeded samplers and merges replay from.
type eager struct {
	model     SizeModel
	entries   []Entry[int64]
	index     map[int64]int
	size      int64
	footprint int64
}

func newEager(model SizeModel) *eager {
	return &eager{model: model, index: map[int64]int{}}
}

func (h *eager) count(v int64) int64 {
	if i, ok := h.index[v]; ok {
		return h.entries[i].Count
	}
	return 0
}

func (h *eager) insert(v, n int64) {
	if i, ok := h.index[v]; ok {
		old := h.entries[i].Count
		h.entries[i].Count = old + n
		h.footprint += h.model.PairBytes(old+n) - h.model.PairBytes(old)
		h.size += n
		return
	}
	h.index[v] = len(h.entries)
	h.entries = append(h.entries, Entry[int64]{Value: v, Count: n})
	h.footprint += h.model.PairBytes(n)
	h.size += n
}

func (h *eager) footprintAfterInsert(v int64) int64 {
	switch h.count(v) {
	case 0:
		return h.footprint + h.model.PairBytes(1)
	case 1:
		return h.footprint + h.model.PairBytes(2) - h.model.PairBytes(1)
	default:
		return h.footprint
	}
}

func (h *eager) reload(counts []int64) {
	kept := h.entries[:0]
	clear(h.index)
	h.size, h.footprint = 0, 0
	for i, e := range h.entries {
		if counts[i] > 0 {
			h.index[e.Value] = len(kept)
			kept = append(kept, Entry[int64]{e.Value, counts[i]})
			h.size += counts[i]
			h.footprint += h.model.PairBytes(counts[i])
		}
	}
	h.entries = kept
}

func (h *eager) remove(v, n int64) {
	i := h.index[v]
	h.setCount(i, h.entries[i].Count-n)
}

func (h *eager) setCount(i int, count int64) {
	old := h.entries[i].Count
	h.size += count - old
	if count == 0 {
		h.footprint -= h.model.PairBytes(old)
		last := len(h.entries) - 1
		delete(h.index, h.entries[i].Value)
		if i != last {
			h.entries[i] = h.entries[last]
			h.index[h.entries[i].Value] = i
		}
		h.entries = h.entries[:last]
		return
	}
	h.entries[i].Count = count
	h.footprint += h.model.PairBytes(count) - h.model.PairBytes(old)
}

func (h *eager) clone() *eager {
	c := &eager{model: h.model, entries: slices.Clone(h.entries), index: make(map[int64]int, len(h.index)),
		size: h.size, footprint: h.footprint}
	for v, i := range h.index {
		c.index[v] = i
	}
	return c
}

func (h *eager) join(other *eager) {
	for _, e := range other.entries {
		h.insert(e.Value, e.Count)
	}
}

func (h *eager) joinedFootprint(other *eager) int64 {
	fp := h.footprint
	for _, e := range other.entries {
		if cur := h.count(e.Value); cur > 0 {
			fp += h.model.PairBytes(cur+e.Count) - h.model.PairBytes(cur)
		} else {
			fp += h.model.PairBytes(e.Count)
		}
	}
	return fp
}

func (h *eager) equal(other *eager) bool {
	if h.size != other.size || len(h.entries) != len(other.entries) {
		return false
	}
	for _, e := range h.entries {
		if other.count(e.Value) != e.Count {
			return false
		}
	}
	return true
}

func (h *eager) reset() {
	h.entries = h.entries[:0]
	clear(h.index)
	h.size, h.footprint = 0, 0
}

func (h *eager) sort() {
	slices.SortFunc(h.entries, func(a, b Entry[int64]) int { return cmp.Compare(a.Value, b.Value) })
	for i, e := range h.entries {
		h.index[e.Value] = i
	}
}

func (h *eager) expand() []int64 {
	var bag []int64
	for _, e := range h.entries {
		for j := int64(0); j < e.Count; j++ {
			bag = append(bag, e.Value)
		}
	}
	return bag
}

// pair is one histogram under test beside its reference.
type pair struct {
	h   *Histogram[int64]
	ref *eager
}

// check compares everything a caller can observe without a lookup, so that
// checking never builds an index: a histogram a step left index-free is still
// index-free when the next step runs.
func (p pair) check(step string) error {
	h, ref := p.h, p.ref
	if h.Size() != ref.size || h.Distinct() != len(ref.entries) || h.Footprint() != ref.footprint || h.Model() != ref.model {
		return fmt.Errorf("%s: %v, want distinct=%d size=%d footprint=%d", step, h, len(ref.entries), ref.size, ref.footprint)
	}
	if want := fmt.Sprintf("Histogram{distinct=%d size=%d footprint=%dB}", len(ref.entries), ref.size, ref.footprint); h.String() != want {
		return fmt.Errorf("%s: String() = %s, want %s", step, h, want)
	}
	if !slices.Equal(h.Entries(), ref.entries) {
		return fmt.Errorf("%s: entries %v, want %v (order included)", step, h.Entries(), ref.entries)
	}
	i := 0
	var err error
	h.Each(func(v, c int64) {
		if e := (Entry[int64]{v, c}); err == nil && (e != ref.entries[i] || h.Entry(i) != e) {
			err = fmt.Errorf("%s: Each/Entry %d = %v/%v, want %v", step, i, e, h.Entry(i), ref.entries[i])
		}
		i++
	})
	if err != nil {
		return err
	}
	if !slices.Equal(h.Expand(), ref.expand()) {
		return fmt.Errorf("%s: Expand() = %v, want %v", step, h.Expand(), ref.expand())
	}
	if sorted := h.IsSortedFunc(cmp.Compare[int64]); sorted != slices.IsSortedFunc(ref.entries, func(a, b Entry[int64]) int { return cmp.Compare(a.Value, b.Value) }) {
		return fmt.Errorf("%s: IsSortedFunc = %v over %v", step, sorted, ref.entries)
	}
	return nil
}

// runOps interprets data as a start state and a sequence of operations, three
// bytes each (opcode, two operands), applied to up to four live histograms
// and to their references, comparing observable state after every step.
// Values come from a range of 16 so that operations collide.
func runOps(data []byte) error {
	model := DefaultSizeModel
	start := newEager(model)
	var h *Histogram[int64]
	if len(data) == 0 {
		return nil
	}
	startOp, data := data[0], data[1:]
	seed := func(n int) {
		for i := 0; i < n; i++ {
			start.insert(int64(i*7%16), int64(i%3)+1)
		}
	}
	switch startOp % 5 {
	case 0:
		h = New[int64](model)
	case 1:
		h = NewSized[int64](model, int(startOp))
	case 2:
		seed(int(startOp) % 13)
		h = FromEntries(model, slices.Clone(start.entries))
	case 3:
		seed(int(startOp) % 13)
		h = FromEntries(model, slices.Clone(start.entries)).Clone()
	case 4:
		start.model = SizeModel{ValueBytes: 16, CountBytes: 2}
		seed(int(startOp) % 13)
		h = FromBag(start.model, start.expand())
		bagged := newEager(start.model)
		for _, v := range start.expand() {
			bagged.insert(v, 1)
		}
		start = bagged
	}
	live := []pair{{h, start}}
	if err := live[0].check("start"); err != nil {
		return err
	}
	for step := 0; len(data) >= 3; step++ {
		op, a, b := data[0], data[1], data[2]
		data = data[3:]
		p := live[int(a>>4)%len(live)]
		q := live[int(b>>4)%len(live)]
		v, n := int64(a%16), int64(b%4)+1
		what := fmt.Sprintf("step %d op %d a=%d b=%d", step, op%15, a, b)
		var got, want any
		switch op % 15 {
		case 0, 1: // twice as likely as the rest: sequences should grow
			p.h.Insert(v, n)
			p.ref.insert(v, n)
		case 2:
			if c := p.ref.count(v); c > 0 {
				n = min(n, c)
				p.h.Remove(v, n)
				p.ref.remove(v, n)
			}
		case 3:
			if d := len(p.ref.entries); d > 0 {
				i, c := int(a)%d, int64(b%4) // c == 0 drops the entry
				p.h.SetCount(i, c)
				p.ref.setCount(i, c)
			}
		case 4:
			got, want = p.h.Count(v), p.ref.count(v)
		case 5:
			// The bound lands below, on and above each possible footprint
			// after the insert, so both answers come up.
			bound := p.ref.footprint + int64(b%32) - 8
			fits := p.ref.footprintAfterInsert(v) <= bound
			if fits {
				p.ref.insert(v, 1)
			}
			got, want = p.h.InsertWithin(v, bound), fits
		case 6:
			if len(live) < 4 {
				live = append(live, pair{p.h.Clone(), p.ref.clone()})
			} else { // replace one, so clones of clones keep coming
				live[int(b)%len(live)] = pair{p.h.Clone(), p.ref.clone()}
			}
		case 7:
			if p.h != q.h {
				got, want = p.h.JoinedFootprint(q.h), p.ref.joinedFootprint(q.ref)
				p.h.Join(q.h)
				p.ref.join(q.ref)
			}
		case 8:
			got, want = p.h.Equal(q.h), p.ref.equal(q.ref)
		case 9:
			if b%8 == 0 { // rare: it ends a sequence's accumulated state
				p.h.Reset()
				p.ref.reset()
			}
		case 10:
			p.h.SortFunc(cmp.Compare[int64])
			p.ref.sort()
		case 11:
			sorted := p.ref.clone()
			sorted.sort()
			got = fmt.Sprint(p.h.SortedEntries(func(x, y int64) bool { return x < y }))
			want = fmt.Sprint(sorted.entries)
		case 12:
			got, want = p.h.JoinedFootprint(q.h), p.ref.joinedFootprint(q.ref)
		case 13:
			rebuilt := FromEntries(p.ref.model, p.h.Entries())
			got, want = rebuilt.Equal(p.h) && p.h.Equal(rebuilt), true
		case 14:
			counts := make([]int64, len(p.ref.entries))
			for i := range counts {
				counts[i] = int64((int(a) + i*int(b)) % 4) // 0 drops the entry
			}
			p.h.Reload(counts)
			p.ref.reload(counts)
		}
		if got != want {
			return fmt.Errorf("%s: got %v, want %v", what, got, want)
		}
		for i, l := range live {
			if err := l.check(fmt.Sprintf("%s, histogram %d", what, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestHistogramModel drives random operation sequences from every start
// state against the eager reference.
func TestHistogramModel(t *testing.T) {
	x := uint64(2006)
	next := func() byte { // SplitMix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return byte((z ^ (z >> 31)) >> 24)
	}
	for run := 0; run < 400; run++ {
		data := make([]byte, 1+3*(20+run%180))
		for i := range data {
			data[i] = next()
		}
		data[0] = byte(run) // every start state, every seed size
		if err := runOps(data); err != nil {
			t.Fatalf("run %d (% x): %v", run, data, err)
		}
	}
}

// FuzzHistogramOps is TestHistogramModel with the operation sequence chosen
// by the fuzzer.
func FuzzHistogramOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 4, 1, 0})                      // New: insert, insert, count
	f.Add([]byte{12, 4, 3, 0, 3, 0, 0, 6, 0, 0, 0, 0x15, 1})         // FromEntries: count, drop, clone, insert into the clone
	f.Add([]byte{13, 10, 0, 0, 6, 0, 0, 7, 0, 0x10, 8, 0, 0x10})     // Clone: sort, clone, join the clone in, equal
	f.Add([]byte{14, 9, 0, 8, 0, 5, 2, 2, 5, 0, 12, 0, 0, 13, 0, 0}) // FromBag: reset, insert, remove, joined footprint, rebuild
	f.Add([]byte{2, 5, 3, 8, 5, 3, 31, 14, 1, 2, 4, 3, 0})           // FromEntries: a refused and an admitted bounded insert, reload, count
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := runOps(data); err != nil {
			t.Fatal(err)
		}
	})
}

// A clone is its entries and nothing else; an index comes with the first
// lookup or mutation, on either side.
func TestCloneAllocatesEntriesOnly(t *testing.T) {
	h := New[int64](DefaultSizeModel)
	for v := int64(0); v < 8192; v++ {
		h.Insert(v*3, v%2+1)
	}
	var c *Histogram[int64]
	if n := testing.AllocsPerRun(20, func() { c = h.Clone() }); n != 2 {
		t.Fatalf("Clone allocates %v times, want 2 (the histogram and its entries)", n)
	}
	c.Insert(1, 1)
	if c.Count(1) != 1 || c.Count(3) != 2 || h.Count(1) != 0 || c.Size() != h.Size()+1 {
		t.Fatalf("clone %v / original %v after an insert into the clone", c, h)
	}
}
