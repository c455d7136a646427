package core_test

import (
	"bytes"
	"context"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

// TestRecycleOwnership holds the merged sample's ownership rule: Recycle
// empties only a sample MergeK returned, and a merge drawing on recycled
// buffers is byte-identical to one that draws on fresh ones.
func TestRecycleOwnership(t *testing.T) {
	cfg := core.ConfigForNF(512)
	r := randx.New(7)
	var inputs []*core.Sample[int64]
	for p := int64(0); p < 6; p++ {
		hr := core.NewHR[int64](cfg, r.Split())
		for v := p * 3000; v < (p+1)*3000; v++ {
			hr.Feed(v % 2000) // values repeat across partitions: the join sums
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, s)
	}
	// A cache holds what the store decoded.
	cached, err := storage.DecodeSample(encoded(t, inputs[0]), storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, cached)
	before := make([][]byte, len(inputs))
	for i, s := range inputs {
		before[i] = encoded(t, s)
	}

	t.Run("partition and cached samples", func(t *testing.T) {
		for i, s := range inputs {
			s.Recycle()
			if got := encoded(t, s); !bytes.Equal(got, before[i]) {
				t.Fatalf("input %d changed under Recycle", i)
			}
		}
	})

	merge := func(seed uint64) *core.Sample[int64] {
		t.Helper()
		m, err := core.MergeK(context.Background(), inputs, randx.New(seed), 3)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	t.Run("recycled merges match fresh ones", func(t *testing.T) {
		for seed := uint64(0); seed < 20; seed++ {
			fresh := encoded(t, merge(seed)) // never recycled: its buffers stay out of the pool
			for round := 0; round < 3; round++ {
				m := merge(seed)
				if got := encoded(t, m); !bytes.Equal(got, fresh) {
					t.Fatalf("seed %d round %d: merge over recycled buffers differs from a fresh one", seed, round)
				}
				m.Recycle()
			}
		}
	})

	t.Run("inputs unchanged", func(t *testing.T) {
		for i, s := range inputs {
			if got := encoded(t, s); !bytes.Equal(got, before[i]) {
				t.Fatalf("input %d changed by merging and recycling", i)
			}
		}
	})

	t.Run("recycled reads as empty", func(t *testing.T) {
		m := merge(99)
		parent := m.ParentSize
		c := m.Clone()
		m.Recycle()
		if m.Size() != 0 || m.Hist.Distinct() != 0 || m.Footprint() != 0 || m.ParentSize != parent {
			t.Fatalf("recycled sample reads %v with %d entries", m, m.Hist.Distinct())
		}
		m.Recycle() // a second time does nothing
		if m.Size() != 0 || m.Hist.Distinct() != 0 {
			t.Fatalf("second Recycle left %v", m)
		}
		want := encoded(t, c)
		c.Recycle() // a clone is not the merge's
		if c.Size() == 0 || !bytes.Equal(encoded(t, c), want) {
			t.Fatalf("Recycle emptied a clone of a merged sample: %v", c)
		}
		var none *core.Sample[int64]
		none.Recycle()
	})
}
