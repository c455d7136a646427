package core

import (
	"math"
	"runtime"
	"testing"

	"samplewh/internal/randx"
)

func TestHRExhaustiveWhenSmall(t *testing.T) {
	r := randx.New(1)
	hr := NewHR[int64](smallCfg(64), r)
	for v := int64(0); v < 30; v++ {
		hr.FeedN(v, 2)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != Exhaustive || s.Size() != 60 {
		t.Fatalf("kind=%v size=%d", s.Kind, s.Size())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHRReservoirSizeExactlyNF(t *testing.T) {
	r := randx.New(2)
	cfg := smallCfg(512)
	hr := NewHR[int64](cfg, r)
	const n = 1 << 15
	for v := int64(0); v < n; v++ {
		hr.Feed(v)
	}
	if hr.Phase() != PhaseReservoir {
		t.Fatalf("phase = %v", hr.Phase())
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != ReservoirKind {
		t.Fatalf("kind = %v", s.Kind)
	}
	if s.Size() != 512 {
		t.Fatalf("HR sample size = %d, want exactly nF = 512 (the paper's key stability property)", s.Size())
	}
	if s.ParentSize != n {
		t.Fatalf("parent = %d", s.ParentSize)
	}
}

func TestHRNoAdvanceKnowledgeOfN(t *testing.T) {
	// HR must produce a full-size sample no matter how much data arrives —
	// unlike HB, whose q depends on the declared N.
	r := randx.New(3)
	for _, n := range []int64{1 << 12, 1 << 14, 1 << 16} {
		hr := NewHR[int64](smallCfg(256), r.Split())
		for v := int64(0); v < n; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if s.Size() != 256 {
			t.Fatalf("n=%d: size %d != 256", n, s.Size())
		}
	}
}

func TestHRFootprintBound(t *testing.T) {
	r := randx.New(4)
	cfg := smallCfg(128)
	hr := NewHR[int64](cfg, r)
	for i := 0; i < 1<<13; i++ {
		hr.Feed(int64(i % 1500))
		if fp := hr.CurrentFootprint(); fp > cfg.FootprintBytes {
			t.Fatalf("footprint %d exceeds F=%d at element %d", fp, cfg.FootprintBytes, i+1)
		}
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Footprint() > cfg.FootprintBytes {
		t.Fatalf("final footprint %d exceeds bound", s.Footprint())
	}
}

func TestHRLazyPurgeAtFinalize(t *testing.T) {
	// Arrange for the phase switch to happen on the very last element: the
	// exact histogram exceeds nF elements but no reservoir insertion ever
	// fires, so Finalize must apply the lazy purge.
	r := randx.New(5)
	cfg := smallCfg(16) // F = 128 bytes
	hr := NewHR[int64](cfg, r)
	// 16 distinct singletons fill F = 128 bytes exactly; the 17th value
	// would exceed the bound and triggers the phase switch before its
	// insert.
	for v := int64(0); v < 17; v++ {
		hr.Feed(v)
	}
	if hr.Phase() != PhaseReservoir {
		t.Fatalf("phase = %v, want reservoir after hitting F", hr.Phase())
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() > 16 {
		t.Fatalf("lazy purge missing: size %d", s.Size())
	}
	if s.Kind != ReservoirKind {
		t.Fatalf("kind = %v", s.Kind)
	}
}

func TestHRPerElementInclusionUniform(t *testing.T) {
	r := randx.New(6)
	const n = 512
	const trials = 4000
	cfg := smallCfg(32)
	counts := make([]int64, n)
	for trial := 0; trial < trials; trial++ {
		hr := NewHR[int64](cfg, r.Split())
		for v := int64(0); v < n; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if s.Size() != 32 {
			t.Fatalf("size = %d", s.Size())
		}
		s.Hist.Each(func(v int64, c int64) { counts[v]++ })
	}
	want := float64(trials) * 32 / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d included %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestHRSubsetUniformityGivenSize(t *testing.T) {
	// All C(6,2) subsets equally likely when sampling 2 of 6 distinct
	// values.
	r := randx.New(7)
	const n = 6
	const trials = 60000
	cfg := smallCfg(2)
	counts := map[uint8]int64{}
	for trial := 0; trial < trials; trial++ {
		hr := NewHR[int64](cfg, r.Split())
		for v := int64(0); v < n; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if s.Size() != 2 {
			t.Fatalf("size = %d, want 2", s.Size())
		}
		var mask uint8
		s.Hist.Each(func(v int64, c int64) { mask |= 1 << uint(v) })
		counts[mask]++
	}
	if len(counts) != 15 {
		t.Fatalf("observed %d subsets, want 15", len(counts))
	}
	want := float64(trials) / 15
	for mask, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("subset %06b: %d, want ~%.0f", mask, c, want)
		}
	}
}

func TestHRDuplicateHeavyStream(t *testing.T) {
	// Duplicates exercise the run shortcuts; size must still be exact.
	r := randx.New(8)
	cfg := smallCfg(64)
	hr := NewHR[int64](cfg, r)
	for v := int64(0); v < 200; v++ {
		hr.FeedN(v, 100)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 64 {
		t.Fatalf("size = %d", s.Size())
	}
	if s.ParentSize != 20000 {
		t.Fatalf("parent = %d", s.ParentSize)
	}
}

func TestHRPanics(t *testing.T) {
	r := randx.New(9)
	hr := NewHR[int64](smallCfg(16), r)
	hr.Feed(1)
	if _, err := hr.Finalize(); err != nil {
		t.Fatal(err)
	}
	if _, err := hr.Finalize(); err == nil {
		t.Fatal("second Finalize did not error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Feed after Finalize did not panic")
			}
		}()
		hr.Feed(2)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FeedN(v,0) did not panic")
			}
		}()
		NewHR[int64](smallCfg(16), r).FeedN(1, 0)
	}()
}

func TestHRSampleSizeStabilityVsHB(t *testing.T) {
	// Figure 15/16 in miniature: over repeated runs, HR sample sizes have
	// (much) lower variance than HB sample sizes.
	const trials = 300
	const n = 1 << 13
	cfg := smallCfg(256)
	var hbSizes, hrSizes []float64
	r := randx.New(10)
	for trial := 0; trial < trials; trial++ {
		hb := NewHB[int64](cfg, n, r.Split())
		hr := NewHR[int64](cfg, r.Split())
		for v := int64(0); v < n; v++ {
			hb.Feed(v)
			hr.Feed(v)
		}
		sb, _ := hb.Finalize()
		sr, _ := hr.Finalize()
		hbSizes = append(hbSizes, float64(sb.Size()))
		hrSizes = append(hrSizes, float64(sr.Size()))
	}
	varOf := func(xs []float64) float64 {
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs)-1)
	}
	hbVar, hrVar := varOf(hbSizes), varOf(hrSizes)
	if hrVar != 0 {
		t.Logf("HB size variance %v, HR %v", hbVar, hrVar)
	}
	if hrVar > hbVar {
		t.Fatalf("HR size variance %v exceeds HB %v; expected HR to be more stable", hrVar, hbVar)
	}
}

// TestHRReservesByRowsNotNF: a sampler's allocations follow the rows fed,
// through Feed and FeedAll alike, not n_F: a few rows at n_F = 4 Mi stay in
// kilobytes where a reservation for n_F would take over 64 MiB.
func TestHRReservesByRowsNotNF(t *testing.T) {
	for name, feed := range map[string]func(*HR[int64], []int64){
		"Feed": func(hr *HR[int64], vals []int64) {
			for _, v := range vals {
				hr.Feed(v)
			}
		},
		"FeedAll": func(hr *HR[int64], vals []int64) { hr.FeedAll(vals) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hr := NewHR[int64](ConfigForNF(1<<22), randx.New(1))
		feed(hr, []int64{1, 2, 2})
		s, err := hr.Finalize()
		runtime.ReadMemStats(&after)
		if err != nil || s.Kind != Exhaustive || s.Size() != 3 {
			t.Fatalf("%s: %v %v", name, s, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: 3 rows at n_F = 4 Mi allocated %d bytes", name, got)
		}
	}
}
