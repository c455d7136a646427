package stream

import (
	"fmt"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
)

// sliceSource adapts a slice to Source for the generic sampling path.
type sliceSource[V any] struct {
	vals []V
	i    int
}

func (s *sliceSource[V]) Len() int64 { return int64(len(s.vals)) }

func (s *sliceSource[V]) Next() (V, bool) {
	if s.i >= len(s.vals) {
		var zero V
		return zero, false
	}
	v := s.vals[s.i]
	s.i++
	return v, true
}

// TestSplitterGenericValueType exercises the stream layer end-to-end over a
// non-int64 value type: split a stream of strings, sample each lane, and
// merge the lane samples into one uniform sample.
func TestSplitterGenericValueType(t *testing.T) {
	rng := randx.New(11)
	cfg := core.ConfigForNF(32)
	sp := NewSplitter(3, func(i int, _ int64) core.Sampler[string] {
		return core.NewHR[string](cfg, rng.Split())
	})
	const n = 900
	for i := 0; i < n; i++ {
		sp.Feed(fmt.Sprintf("user-%04d", i))
	}
	if sp.Fed() != n {
		t.Fatalf("fed %d, want %d", sp.Fed(), n)
	}
	samples, err := sp.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.MergeTree(samples, core.HRMerge[string], rng.Split())
	if err != nil {
		t.Fatal(err)
	}
	if merged.ParentSize != n {
		t.Fatalf("merged parent size %d, want %d", merged.ParentSize, n)
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSampleParallelFromGeneric runs the parallel sampling entry point over
// string sources.
func TestSampleParallelFromGeneric(t *testing.T) {
	rng := randx.New(12)
	cfg := core.ConfigForNF(16)
	var sources []Source[string]
	for p := 0; p < 4; p++ {
		vals := make([]string, 300)
		for i := range vals {
			vals[i] = fmt.Sprintf("p%d-%d", p, i)
		}
		sources = append(sources, &sliceSource[string]{vals: vals})
	}
	srcs := make([]*randx.RNG, len(sources))
	for i := range srcs {
		srcs[i] = rng.Split()
	}
	samples, err := SampleParallelFrom(sources, func(i int, expectedN int64) core.Sampler[string] {
		return core.NewHR[string](cfg, srcs[i])
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("%d samples, want 4", len(samples))
	}
	for i, s := range samples {
		if s.ParentSize != 300 {
			t.Fatalf("partition %d parent size %d, want 300", i, s.ParentSize)
		}
	}
}
