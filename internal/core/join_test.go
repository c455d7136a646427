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
