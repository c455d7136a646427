package core

import (
	"context"
	"math"
	"testing"

	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// makeSample collects a sample of the integers [lo, hi) with the given
// sampler constructor.
func collectHB(t *testing.T, cfg Config, lo, hi int64, src randx.Source) *Sample[int64] {
	t.Helper()
	hb := NewHB[int64](cfg, hi-lo, src)
	for v := lo; v < hi; v++ {
		hb.Feed(v)
	}
	s, err := hb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func collectHR(t *testing.T, cfg Config, lo, hi int64, src randx.Source) *Sample[int64] {
	t.Helper()
	hr := NewHR[int64](cfg, src)
	for v := lo; v < hi; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHRMergeTwoReservoirsTheorem1(t *testing.T) {
	// Theorem 1: merging two reservoir samples yields a simple random sample
	// of size k = min(|S1|,|S2|) of D1 ∪ D2. Verify per-element inclusion
	// probability k/(|D1|+|D2|) for asymmetric partitions.
	r := randx.New(1)
	const n1, n2 = 600, 1400
	const trials = 3000
	cfg := smallCfg(32)
	counts := make([]int64, n1+n2)
	for trial := 0; trial < trials; trial++ {
		s1 := collectHR(t, cfg, 0, n1, r.Split())
		s2 := collectHR(t, cfg, n1, n1+n2, r.Split())
		m, err := HRMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != ReservoirKind {
			t.Fatalf("kind = %v", m.Kind)
		}
		if m.Size() != 32 {
			t.Fatalf("merged size = %d, want 32", m.Size())
		}
		if m.ParentSize != n1+n2 {
			t.Fatalf("parent = %d", m.ParentSize)
		}
		m.Hist.Each(func(v int64, c int64) { counts[v]++ })
	}
	want := float64(trials) * 32 / (n1 + n2)
	var tooFar int
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("element %d included %d times, want ~%.1f", v, c, want)
			tooFar++
			if tooFar > 20 {
				t.Fatal("too many failures")
			}
		}
	}
	// Crucially: elements of the big partition must not be under- or
	// over-represented relative to the small one.
	var smallSide, bigSide int64
	for v, c := range counts {
		if int64(v) < n1 {
			smallSide += c
		} else {
			bigSide += c
		}
	}
	gotRatio := float64(smallSide) / float64(smallSide+bigSide)
	wantRatio := float64(n1) / (n1 + n2)
	if math.Abs(gotRatio-wantRatio) > 0.01 {
		t.Errorf("partition-1 share = %v, want %v", gotRatio, wantRatio)
	}
}

func TestHRMergeSubsetUniformity(t *testing.T) {
	// Exact subset-level check of Theorem 1 on a tiny domain: D1 = {0,1,2},
	// D2 = {3,4,5}, reservoir samples of size 2 each, merged size 2; all 15
	// pairs must be equally likely.
	r := randx.New(2)
	const trials = 90000
	cfg := smallCfg(2)
	counts := map[uint8]int64{}
	for trial := 0; trial < trials; trial++ {
		s1 := collectHR(t, cfg, 0, 3, r.Split())
		s2 := collectHR(t, cfg, 3, 6, r.Split())
		m, err := HRMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Size() != 2 {
			t.Fatalf("merged size = %d", m.Size())
		}
		var mask uint8
		m.Hist.Each(func(v int64, c int64) {
			for j := int64(0); j < c; j++ {
				mask |= 1 << uint(v)
			}
		})
		counts[mask]++
	}
	if len(counts) != 15 {
		t.Fatalf("observed %d of 15 subsets", len(counts))
	}
	want := float64(trials) / 15
	for mask, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("subset %06b: %d, want ~%.0f", mask, c, want)
		}
	}
}

func TestHRMergeExhaustivePlusReservoir(t *testing.T) {
	r := randx.New(3)
	cfg := smallCfg(64)
	const trials = 3000
	counts := make([]int64, 1024+32)
	for trial := 0; trial < trials; trial++ {
		// Exhaustive sample of a small partition.
		s1 := collectHR(t, cfg, 1024, 1024+32, r.Split())
		if s1.Kind != Exhaustive {
			t.Fatalf("small partition not exhaustive: %v", s1.Kind)
		}
		// Reservoir sample of a big partition.
		s2 := collectHR(t, cfg, 0, 1024, r.Split())
		if s2.Kind != ReservoirKind {
			t.Fatalf("big partition not reservoir: %v", s2.Kind)
		}
		m, err := HRMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.ParentSize != 1056 {
			t.Fatalf("parent = %d", m.ParentSize)
		}
		if m.Size() != 64 {
			t.Fatalf("merged size = %d, want 64 (reservoir side's size preserved)", m.Size())
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	want := float64(trials) * 64 / 1056
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 7*math.Sqrt(want) {
			t.Errorf("element %d: %d inclusions, want ~%.1f", v, c, want)
		}
	}
}

func TestHRMergeBothExhaustiveStaysExact(t *testing.T) {
	r := randx.New(4)
	cfg := smallCfg(1024)
	s1 := collectHR(t, cfg, 0, 100, r.Split())
	s2 := collectHR(t, cfg, 100, 300, r.Split())
	m, err := HRMerge(s1, s2, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != Exhaustive {
		t.Fatalf("kind = %v, want exhaustive (union fits)", m.Kind)
	}
	if m.Size() != 300 || m.ParentSize != 300 {
		t.Fatalf("size=%d parent=%d", m.Size(), m.ParentSize)
	}
	for v := int64(0); v < 300; v++ {
		if m.Hist.Count(v) != 1 {
			t.Fatalf("count(%d) = %d", v, m.Hist.Count(v))
		}
	}
}

func TestHBMergeBothBernoulli(t *testing.T) {
	r := randx.New(5)
	cfg := smallCfg(512)
	const n = 1 << 14
	const trials = 1500
	counts := make([]int64, 2*n)
	var sizes []float64
	rare := 0
	for trial := 0; trial < trials; trial++ {
		s1 := collectHB(t, cfg, 0, n, r.Split())
		s2 := collectHB(t, cfg, n, 2*n, r.Split())
		if s1.Kind != BernoulliKind || s2.Kind != BernoulliKind {
			// With exceedance probability p = 0.001 a handful of the 3000
			// samples legitimately fall back to the reservoir phase.
			rare++
			if rare > 20 {
				t.Fatalf("too many reservoir fallbacks: %d", rare)
			}
			continue
		}
		m, err := HBMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind != BernoulliKind {
			// The merge's own overflow fallback fires with probability ~p.
			rare++
			if rare > 20 {
				t.Fatalf("too many overflow fallbacks: %d", rare)
			}
			continue
		}
		wantQ := QApprox(2*n, cfg.ExceedProb, 512)
		if math.Abs(m.Q-wantQ) > 1e-12 {
			t.Fatalf("merged q = %v, want %v", m.Q, wantQ)
		}
		if m.ParentSize != 2*n {
			t.Fatalf("parent = %d", m.ParentSize)
		}
		sizes = append(sizes, float64(m.Size()))
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	used := len(sizes)
	if used < trials-20 {
		t.Fatalf("only %d usable trials", used)
	}
	// Inclusion probability must equal the merged q for every element.
	wantQ := QApprox(2*n, cfg.ExceedProb, 512)
	var total int64
	for _, c := range counts {
		total += c
	}
	gotRate := float64(total) / float64(used*2*n)
	if math.Abs(gotRate-wantQ)/wantQ > 0.02 {
		t.Errorf("overall inclusion rate %v, want %v", gotRate, wantQ)
	}
	var firstHalf, secondHalf int64
	for v, c := range counts {
		if v < n {
			firstHalf += c
		} else {
			secondHalf += c
		}
	}
	if ratio := float64(firstHalf) / float64(firstHalf+secondHalf); math.Abs(ratio-0.5) > 0.01 {
		t.Errorf("partition share = %v, want 0.5", ratio)
	}
}

func TestHBMergeExhaustivePlusBernoulli(t *testing.T) {
	r := randx.New(6)
	cfg := smallCfg(256)
	const big = 1 << 13
	const small = 100
	const trials = 2000
	counts := make([]int64, big+small)
	for trial := 0; trial < trials; trial++ {
		s1 := collectHB(t, cfg, 0, big, r.Split()) // Bernoulli
		s2 := collectHB(t, cfg, big, big+small, r.Split())
		if s2.Kind != Exhaustive {
			t.Fatalf("small sample kind %v", s2.Kind)
		}
		m, err := HBMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.ParentSize != big+small {
			t.Fatalf("parent = %d", m.ParentSize)
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	// All elements — from both partitions — must be included at the same
	// rate (the rate is the phase-2 q of the big partition's sampler).
	var sideA, sideB int64
	for v, c := range counts {
		if v < big {
			sideA += c
		} else {
			sideB += c
		}
	}
	rateA := float64(sideA) / float64(trials*big)
	rateB := float64(sideB) / float64(trials*small)
	if math.Abs(rateA-rateB)/rateA > 0.05 {
		t.Errorf("inclusion rates differ: big partition %v vs small %v", rateA, rateB)
	}
}

func TestHBMergeOverflowFallsBackToReservoir(t *testing.T) {
	// Engineer the low-probability overflow: two Bernoulli samples whose
	// joined footprint exceeds F. Easiest route: merge many samples so q
	// stays high relative to the data, using a tiny F and heavy duplicates
	// is fiddly — instead, construct the samples directly.
	r := randx.New(7)
	cfg := smallCfg(16)
	mk := func(lo int64) *Sample[int64] {
		h := histogram.New[int64](cfg.SizeModel)
		for v := lo; v < lo+15; v++ {
			h.Insert(v, 1)
		}
		return &Sample[int64]{
			Kind:       BernoulliKind,
			Hist:       h,
			ParentSize: 20,
			Q:          0.75,
			Config:     cfg,
		}
	}
	s1, s2 := mk(0), mk(100)
	m, err := HBMerge(s1, s2, r)
	if err != nil {
		t.Fatal(err)
	}
	// q(40, p, 16) is well below 0.75, so both sides get thinned; if the
	// join still does not fit, the reservoir path runs. Either way the
	// footprint bound must hold.
	if m.Footprint() > cfg.FootprintBytes {
		t.Fatalf("merged footprint %d > F=%d", m.Footprint(), cfg.FootprintBytes)
	}
	if m.ParentSize != 40 {
		t.Fatalf("parent = %d", m.ParentSize)
	}
}

func TestHBMergeReservoirOverflowPathDirect(t *testing.T) {
	// Force the lines 15–16 path deterministically: Bernoulli samples with
	// q = 1 relative to tiny declared parents would not thin at all if the
	// merged q is also ~1 — so use parents large enough that the merged
	// footprint check still fails after thinning is skipped (q/qi >= 1).
	r := randx.New(8)
	cfg := smallCfg(4) // F = 32 bytes; any 4 singletons fill it
	h1 := histogram.New[int64](cfg.SizeModel)
	h2 := histogram.New[int64](cfg.SizeModel)
	for v := int64(0); v < 3; v++ {
		h1.Insert(v, 1)
		h2.Insert(100+v, 1)
	}
	lowQ := QApprox(12, cfg.ExceedProb, 4) // merged q for parent size 12
	s1 := &Sample[int64]{Kind: BernoulliKind, Hist: h1, ParentSize: 6, Q: lowQ, Config: cfg}
	s2 := &Sample[int64]{Kind: BernoulliKind, Hist: h2, ParentSize: 6, Q: lowQ, Config: cfg}
	// Merged q equals lowQ (same total parent), so PurgeBernoulli(ratio>=1)
	// keeps everything and join footprint = 48 > 32 → reservoir path.
	m, err := HBMerge(s1, s2, r)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != ReservoirKind {
		t.Fatalf("kind = %v, want reservoir fallback", m.Kind)
	}
	if m.Size() != 4 {
		t.Fatalf("size = %d, want nF = 4", m.Size())
	}
}

func TestMergeDispatch(t *testing.T) {
	r := randx.New(9)
	cfg := smallCfg(64)
	// bernoulli + reservoir → reservoir result via MergeK's HRMerge rule.
	s1 := collectHB(t, cfg, 0, 1<<13, r.Split())
	hrS := collectHR(t, cfg, 1<<13, 1<<14, r.Split())
	if s1.Kind != BernoulliKind || hrS.Kind != ReservoirKind {
		t.Fatalf("setup kinds: %v %v", s1.Kind, hrS.Kind)
	}
	m, err := MergeK(context.Background(), []*Sample[int64]{s1, hrS}, r.Split(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != ReservoirKind {
		t.Fatalf("merge(bern, res) kind = %v", m.Kind)
	}
}

func TestMergeIncompatibleConfigs(t *testing.T) {
	r := randx.New(10)
	s1 := collectHB(t, smallCfg(64), 0, 100, r.Split())
	s2 := collectHB(t, smallCfg(128), 100, 200, r.Split())
	if _, err := MergeK(context.Background(), []*Sample[int64]{s1, s2}, r, 1); err == nil {
		t.Fatal("merge across footprints did not error")
	}
}

func TestMergeSerialAndTree(t *testing.T) {
	r := randx.New(11)
	cfg := smallCfg(128)
	const parts = 9
	const per = 1 << 11
	build := func() []*Sample[int64] {
		var ss []*Sample[int64]
		for i := int64(0); i < parts; i++ {
			ss = append(ss, collectHR(t, cfg, i*per, (i+1)*per, r.Split()))
		}
		return ss
	}
	serial, err := MergeSerial(build(), HRMerge, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	tree, err := MergeTree(build(), HRMerge, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Sample[int64]{serial, tree} {
		if m.ParentSize != parts*per {
			t.Fatalf("parent = %d", m.ParentSize)
		}
		if m.Size() != 128 {
			t.Fatalf("size = %d", m.Size())
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergeSerialEmpty(t *testing.T) {
	r := randx.New(12)
	if _, err := MergeSerial[int64](nil, HRMerge, r); err == nil {
		t.Fatal("empty MergeSerial did not error")
	}
	if _, err := MergeTree[int64](nil, HRMerge, r); err == nil {
		t.Fatal("empty MergeTree did not error")
	}
}

func TestMergeSingleSample(t *testing.T) {
	r := randx.New(13)
	cfg := smallCfg(64)
	s := collectHR(t, cfg, 0, 1000, r.Split())
	m, err := MergeTree([]*Sample[int64]{s}, HRMerge, r)
	if err != nil {
		t.Fatal(err)
	}
	if m != s {
		t.Fatal("single-sample merge should return the sample itself")
	}
}

func TestMergeTreeUniformInclusionAcross64Partitions(t *testing.T) {
	// End-to-end pipeline check at moderate scale: 64 partitions of 256
	// distinct elements each, HR sampling + tree merge; every element's
	// inclusion probability must be k/N.
	r := randx.New(14)
	cfg := smallCfg(64)
	const parts = 64
	const per = 256
	const trials = 600
	counts := make([]int64, parts*per)
	for trial := 0; trial < trials; trial++ {
		var ss []*Sample[int64]
		for i := int64(0); i < parts; i++ {
			ss = append(ss, collectHR(t, cfg, i*per, (i+1)*per, r.Split()))
		}
		m, err := MergeTree(ss, HRMerge, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Size() != 64 {
			t.Fatalf("merged size = %d", m.Size())
		}
		m.Hist.Each(func(v int64, c int64) { counts[v] += c })
	}
	want := float64(trials) * 64 / float64(parts*per)
	sum := 0.0
	for _, c := range counts {
		sum += float64(c)
	}
	if math.Abs(sum/float64(len(counts))-want) > 0.05*want {
		t.Errorf("mean inclusion %v, want %v", sum/float64(len(counts)), want)
	}
	// Partition-level shares: no partition may be systematically favored.
	for i := 0; i < parts; i++ {
		var pc int64
		for j := 0; j < per; j++ {
			pc += counts[i*per+j]
		}
		wantP := want * per
		if math.Abs(float64(pc)-wantP) > 6*math.Sqrt(wantP) {
			t.Errorf("partition %d got %d inclusions, want ~%.0f", i, pc, wantP)
		}
	}
}

func TestSBMergeEqualRates(t *testing.T) {
	r := randx.New(15)
	cfg := smallCfg(1 << 20)
	const n = 1 << 12
	sb1 := NewSB[int64](cfg, 0.01, r.Split())
	sb2 := NewSB[int64](cfg, 0.01, r.Split())
	for v := int64(0); v < n; v++ {
		sb1.Feed(v)
		sb2.Feed(n + v)
	}
	s1, _ := sb1.Finalize()
	s2, _ := sb2.Finalize()
	m, err := SBMerge(s1, s2, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	if m.Q != 0.01 || m.ParentSize != 2*n {
		t.Fatalf("q=%v parent=%d", m.Q, m.ParentSize)
	}
}

func TestSBMergeUnequalRatesEqualizes(t *testing.T) {
	r := randx.New(16)
	cfg := smallCfg(1 << 20)
	const n = 1 << 14
	const trials = 400
	var side1, side2 int64
	for trial := 0; trial < trials; trial++ {
		sb1 := NewSB[int64](cfg, 0.05, r.Split())
		sb2 := NewSB[int64](cfg, 0.02, r.Split())
		for v := int64(0); v < n; v++ {
			sb1.Feed(v)
			sb2.Feed(n + v)
		}
		s1, _ := sb1.Finalize()
		s2, _ := sb2.Finalize()
		m, err := SBMerge(s1, s2, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		if m.Q != 0.02 {
			t.Fatalf("merged q = %v, want 0.02", m.Q)
		}
		m.Hist.Each(func(v int64, c int64) {
			if v < n {
				side1 += c
			} else {
				side2 += c
			}
		})
	}
	r1 := float64(side1) / float64(trials*n)
	r2 := float64(side2) / float64(trials*n)
	if math.Abs(r1-0.02) > 0.001 || math.Abs(r2-0.02) > 0.001 {
		t.Fatalf("post-equalization rates %v / %v, want 0.02", r1, r2)
	}
}

func TestSBMergeRejectsNonBernoulli(t *testing.T) {
	r := randx.New(17)
	cfg := smallCfg(64)
	s1 := collectHR(t, cfg, 0, 10000, r.Split())
	s2 := collectHB(t, cfg, 0, 100, r.Split())
	if _, err := SBMerge(s1, s2, r); err == nil {
		t.Fatal("SBMerge accepted a reservoir sample")
	}
}

func TestAbsorbIntoReservoirWarmUp(t *testing.T) {
	// Absorbing into an underfull bag must first fill it.
	r := randx.New(18)
	h := histogram.New[int64](histogram.DefaultSizeModel)
	h.Insert(7, 3)
	bag := []int64{1, 2}
	out := absorbIntoReservoir(bag, 5, 2, h, r)
	if len(out) != 5 {
		t.Fatalf("bag size %d, want 5", len(out))
	}
	var sevens int
	for _, v := range out {
		if v == 7 {
			sevens++
		}
	}
	if sevens != 3 {
		t.Fatalf("absorbed %d sevens, want 3 (all, since total fits)", sevens)
	}
}

func TestSampleCloneAndString(t *testing.T) {
	r := randx.New(19)
	s := collectHR(t, smallCfg(64), 0, 1000, r)
	c := s.Clone()
	c.Hist.Insert(99999, 5)
	if s.Hist.Count(99999) != 0 {
		t.Fatal("clone shares histogram")
	}
	if s.String() == "" || s.Kind.String() == "" {
		t.Fatal("String() empty")
	}
	if Kind(99).String() == "" || Phase(99).String() == "" {
		t.Fatal("unknown enum String() empty")
	}
}
