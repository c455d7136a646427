package core

import (
	"slices"
	"testing"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// TestSortRun holds sortRun to slices.SortFunc on runs in value order,
// reversed, organ-pipe, random, short and empty.
func TestSortRun(t *testing.T) {
	r := randx.New(3)
	runs := map[string][]int64{}
	for i := int64(0); i < 300; i++ {
		runs["ascending"] = append(runs["ascending"], 2*i)
		runs["descending"] = append(runs["descending"], 600-2*i)
		runs["organ-pipe"] = append(runs["organ-pipe"], min(i, 300-i)*1000+i)
		runs["random"] = append(runs["random"], int64(r.Uint64()>>1))
	}
	runs["short"] = []int64{5, 3, 9, 1}
	runs["empty"] = nil
	for name, vs := range runs {
		t.Run(name, func(t *testing.T) {
			es := make([]histogram.Entry[int64], len(vs))
			for i, v := range vs {
				es[i] = histogram.Entry[int64]{Value: v, Count: int64(1 + i%3)}
			}
			want := slices.Clone(es)
			slices.SortFunc(want, func(a, b histogram.Entry[int64]) int { return int(a.Value - b.Value) })
			sortRun(es)
			if !slices.Equal(es, want) {
				t.Fatalf("sorted to %v, want %v", es, want)
			}
		})
	}
}

// TestJoinBufferFitsRuns: a pooled buffer far larger than the runs — left by
// an earlier, larger merge — does not back the merged sample, which may
// outlive its request.
func TestJoinBufferFitsRuns(t *testing.T) {
	model := histogram.DefaultSizeModel
	big := windows[int64](1<<14, 1<<14)
	putWindows(big, 1<<14, big)
	run := []histogram.Entry[int64]{{Value: 1, Count: 2}, {Value: 3, Count: 1}}
	h := join(model, [][]histogram.Entry[int64]{run, {{Value: 2, Count: 1}}})
	if h.Size() != 4 || h.Distinct() != 3 {
		t.Fatalf("join gave %v", h)
	}
	if es := h.Release(); cap(es) > 2*3 {
		t.Fatalf("merged sample of 3 entries backed by a buffer of %d", cap(es))
	}
}
