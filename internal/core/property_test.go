package core

import (
	"context"
	"testing"
	"testing/quick"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// TestPropertyHBInvariants drives Algorithm HB with random operation
// sequences and asserts the paper's hard guarantees at every step: the
// footprint never exceeds F, the element count is conserved, and the final
// sample is internally consistent.
func TestPropertyHBInvariants(t *testing.T) {
	check := func(seed uint64, nfRaw uint8, ops []uint16) bool {
		nf := int64(nfRaw%60) + 4
		cfg := ConfigForNF(nf)
		expected := int64(len(ops))*3 + 1
		hb := NewHB[int64](cfg, expected, randx.New(seed))
		var fed int64
		for _, op := range ops {
			v := int64(op % 97)
			n := int64(op%5) + 1
			hb.FeedN(v, n)
			fed += n
			if hb.CurrentFootprint() > cfg.FootprintBytes {
				return false
			}
			if hb.Seen() != fed {
				return false
			}
		}
		s, err := hb.Finalize()
		if err != nil {
			return false
		}
		if s.ParentSize != fed {
			return false
		}
		if s.Validate() != nil {
			return false
		}
		return s.Footprint() <= cfg.FootprintBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHRInvariants mirrors TestPropertyHBInvariants for HR.
func TestPropertyHRInvariants(t *testing.T) {
	check := func(seed uint64, nfRaw uint8, ops []uint16) bool {
		nf := int64(nfRaw%60) + 4
		cfg := ConfigForNF(nf)
		hr := NewHR[int64](cfg, randx.New(seed))
		var fed int64
		for _, op := range ops {
			v := int64(op % 97)
			n := int64(op%5) + 1
			hr.FeedN(v, n)
			fed += n
			if hr.CurrentFootprint() > cfg.FootprintBytes {
				return false
			}
		}
		s, err := hr.Finalize()
		if err != nil {
			return false
		}
		if s.ParentSize != fed || s.Validate() != nil {
			return false
		}
		if s.Kind == ReservoirKind && s.Size() > nf {
			return false
		}
		return s.Footprint() <= cfg.FootprintBytes
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPurgeReservoirSize asserts PurgeReservoir always leaves
// exactly min(m, |S|) elements, preserves value membership, and never
// invents counts, for random histograms.
func TestPropertyPurgeReservoirSize(t *testing.T) {
	check := func(seed uint64, counts []uint8, mRaw uint16) bool {
		h := histogram.New[int64](histogram.DefaultSizeModel)
		for i, c := range counts {
			if c%7 > 0 {
				h.Insert(int64(i), int64(c%7))
			}
		}
		orig := h.Clone()
		m := int64(mRaw % 64)
		PurgeReservoir(h, m, randx.New(seed))
		want := m
		if orig.Size() < m {
			want = orig.Size()
		}
		if h.Size() != want {
			return false
		}
		ok := true
		h.Each(func(v int64, c int64) {
			if c > orig.Count(v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPurgeBernoulliSubset asserts PurgeBernoulli never increases
// any count and preserves the size model accounting.
func TestPropertyPurgeBernoulliSubset(t *testing.T) {
	check := func(seed uint64, counts []uint8, qRaw uint8) bool {
		h := histogram.New[int64](histogram.DefaultSizeModel)
		for i, c := range counts {
			if c%9 > 0 {
				h.Insert(int64(i), int64(c%9))
			}
		}
		orig := h.Clone()
		q := float64(qRaw) / 255
		PurgeBernoulli(h, q, randx.New(seed))
		ok := h.Size() <= orig.Size()
		h.Each(func(v int64, c int64) {
			if c > orig.Count(v) {
				ok = false
			}
		})
		// Footprint must match a from-scratch recomputation.
		var fp int64
		h.Each(func(_ int64, c int64) { fp += histogram.DefaultSizeModel.PairBytes(c) })
		return ok && fp == h.Footprint()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMergeParentAdditive asserts that for random disjoint
// partition sizes and any algorithm mix, the merged ParentSize is the sum,
// the merged footprint respects the bound, and Validate passes.
func TestPropertyMergeParentAdditive(t *testing.T) {
	check := func(seed uint64, aRaw, bRaw uint16, hbA, hbB bool) bool {
		nA := int64(aRaw%4000) + 10
		nB := int64(bRaw%4000) + 10
		cfg := ConfigForNF(32)
		rng := randx.New(seed)
		mk := func(lo, n int64, hb bool) *Sample[int64] {
			var smp Sampler[int64]
			if hb {
				smp = NewHB[int64](cfg, n, rng.Split())
			} else {
				smp = NewHR[int64](cfg, rng.Split())
			}
			for v := lo; v < lo+n; v++ {
				smp.Feed(v)
			}
			s, err := smp.Finalize()
			if err != nil {
				return nil
			}
			return s
		}
		s1 := mk(0, nA, hbA)
		s2 := mk(1<<20, nB, hbB)
		if s1 == nil || s2 == nil {
			return false
		}
		m, err := MergeK(context.Background(), []*Sample[int64]{s1, s2}, rng, 1)
		if err != nil {
			return false
		}
		if m.ParentSize != nA+nB {
			return false
		}
		if m.Validate() != nil {
			return false
		}
		return m.Footprint() <= cfg.FootprintBytes ||
			m.Kind == Exhaustive // exhaustive unions of tiny partitions may be over NF values but under F bytes anyway
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHistogramSampleRoundTrip asserts any finalized sample's
// histogram expands and rebuilds to an equal histogram.
func TestPropertyHistogramSampleRoundTrip(t *testing.T) {
	check := func(seed uint64, n uint16) bool {
		hr := NewHR[int64](ConfigForNF(48), randx.New(seed))
		for v := int64(0); v < int64(n%3000)+1; v++ {
			hr.Feed(v % 50)
		}
		s, err := hr.Finalize()
		if err != nil {
			return false
		}
		rebuilt := histogram.FromBag(s.Config.SizeModel, s.Hist.Expand())
		return rebuilt.Equal(s.Hist)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
