package estimate

import (
	"math"
	"sort"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// exhaustiveSample builds an exhaustive sample of [0, n).
func exhaustiveSample(t *testing.T, n int64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(4*n), randx.New(1))
	for v := int64(0); v < n; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind != core.Exhaustive {
		t.Fatal("setup: not exhaustive")
	}
	return s
}

// reservoirSample builds a size-k reservoir sample of [0, n).
func reservoirSample(t *testing.T, seed uint64, n, k int64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(k), randx.New(seed))
	for v := int64(0); v < n; v++ {
		hr.Feed(v)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCountExactOnExhaustive(t *testing.T) {
	s := exhaustiveSample(t, 1000)
	e := New(s)
	est, err := e.Count(func(v int64) bool { return v < 250 })
	if err != nil {
		t.Fatal(err)
	}
	if !est.Exact || est.Value != 250 || est.StdErr != 0 {
		t.Fatalf("est = %+v", est)
	}
	if est.String() == "" {
		t.Fatal("String empty")
	}
}

func TestCountCoverageOnSRS(t *testing.T) {
	// Over many independent samples, the 95% CI must cover the truth
	// roughly 95% of the time (allow 90–99%).
	const n = 20000
	const k = 1024
	const truth = 5000.0 // elements < 5000
	const trials = 400
	covered := 0
	for trial := 0; trial < trials; trial++ {
		s := reservoirSample(t, uint64(trial)+10, n, k)
		e := New(s)
		est, err := e.Count(func(v int64) bool { return v < 5000 })
		if err != nil {
			t.Fatal(err)
		}
		if est.Lo <= truth && truth <= est.Hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.90 || rate > 0.995 {
		t.Fatalf("CI coverage %v, want ≈0.95", rate)
	}
}

func TestSumAndAvg(t *testing.T) {
	s := reservoirSample(t, 3, 10000, 2048)
	e := New(s)
	avg, err := e.Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	wantAvg := 9999.0 / 2
	if math.Abs(avg.Value-wantAvg) > 5*avg.StdErr+1 {
		t.Fatalf("avg %v, want ~%v (se %v)", avg.Value, wantAvg, avg.StdErr)
	}
	sum, err := e.Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	wantSum := wantAvg * 10000
	if math.Abs(sum.Value-wantSum) > 5*sum.StdErr+1 {
		t.Fatalf("sum %v, want ~%v", sum.Value, wantSum)
	}
	if math.Abs(sum.Value-avg.Value*10000) > 1e-6 {
		t.Fatal("sum != avg·N")
	}
}

func TestFractionBoundsClamped(t *testing.T) {
	s := reservoirSample(t, 4, 10000, 512)
	e := New(s)
	// Predicate true for almost everything → Hi must clamp to 1.
	est, err := e.Fraction(func(v int64) bool { return v >= 0 })
	if err != nil {
		t.Fatal(err)
	}
	if est.Hi > 1 || est.Lo < 0 {
		t.Fatalf("bounds not clamped: %+v", est)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	s := reservoirSample(t, 5, 10000, 512)
	s.Hist.Reset()
	e := New(s)
	if _, err := e.Count(func(int64) bool { return true }); err == nil {
		t.Error("empty sample Count accepted")
	}
	if _, err := e.Avg(func(int64) float64 { return 0 }); err == nil {
		t.Error("empty sample Avg accepted")
	}
}

func TestNewWithConfidenceValidation(t *testing.T) {
	s := exhaustiveSample(t, 10)
	if _, err := NewWithConfidence(s, 0.5); err == nil {
		t.Error("unsupported confidence accepted")
	}
	if _, err := NewWithConfidence[int64](nil, 0.95); err == nil {
		t.Error("nil sample accepted")
	}
	for _, c := range []float64{0.90, 0.95, 0.99} {
		if _, err := NewWithConfidence(s, c); err != nil {
			t.Errorf("confidence %v rejected: %v", c, err)
		}
	}
}

func TestDistinctEstimators(t *testing.T) {
	// Population: 3000 distinct values each occurring 5 times.
	hb := core.NewHB[int64](core.ConfigForNF(2048), 15000, randx.New(6))
	for rep := 0; rep < 5; rep++ {
		for v := int64(0); v < 3000; v++ {
			hb.Feed(v)
		}
	}
	s, err := hb.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	naive := float64(e.DistinctNaive())
	chao := e.DistinctChao1()
	gee := e.DistinctGEE()
	if naive > 3000 {
		t.Fatalf("naive %v exceeds truth", naive)
	}
	if chao < naive {
		t.Fatalf("Chao1 %v below naive %v", chao, naive)
	}
	// Both estimators should be much closer to the truth than the naive
	// count for this undersampled population.
	if math.Abs(chao-3000) > 3000*0.5 {
		t.Errorf("Chao1 = %v, truth 3000", chao)
	}
	if math.Abs(gee-3000) > 3000*0.5 {
		t.Errorf("GEE = %v, truth 3000", gee)
	}
}

func TestDistinctExactOnExhaustive(t *testing.T) {
	s := exhaustiveSample(t, 500)
	e := New(s)
	if e.DistinctChao1() != 500 || e.DistinctGEE() != 500 || e.DistinctNaive() != 500 {
		t.Fatalf("exhaustive distinct estimates: %v %v %v",
			e.DistinctChao1(), e.DistinctGEE(), e.DistinctNaive())
	}
}

func TestTopK(t *testing.T) {
	// Skewed exhaustive data: value v occurs (10-v) times for v in 0..9.
	hr := core.NewHR[int64](core.ConfigForNF(1024), randx.New(7))
	for v := int64(0); v < 10; v++ {
		hr.FeedN(v, 10-v)
	}
	s, _ := hr.Finalize()
	e := New(s)
	top := e.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d entries", len(top))
	}
	if top[0].Value != 0 || top[0].InSample != 10 || top[0].Estimated != 10 {
		t.Fatalf("top entry %+v", top[0])
	}
	if top[1].Value != 1 || top[2].Value != 2 {
		t.Fatalf("order wrong: %+v", top)
	}
	if e.TopK(0) != nil {
		t.Fatal("TopK(0) != nil")
	}
	if got := e.TopK(100); len(got) != 10 {
		t.Fatalf("TopK over-asks: %d", len(got))
	}
}

func TestQuantiles(t *testing.T) {
	s := reservoirSample(t, 8, 100000, 4096)
	oe, err := NewOrdered(s, func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	med, err := oe.Median()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(med)-50000) > 5000 {
		t.Fatalf("median %d, want ~50000", med)
	}
	q90, err := oe.Quantile(0.9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(q90)-90000) > 5000 {
		t.Fatalf("q90 %d, want ~90000", q90)
	}
	if _, err := oe.Quantile(-0.1); err == nil {
		t.Error("negative quantile accepted")
	}
	if _, err := oe.Quantile(1.5); err == nil {
		t.Error("quantile > 1 accepted")
	}
}

func TestValueSetResemblance(t *testing.T) {
	a := exhaustiveSample(t, 100) // values 0..99
	bs := core.NewHR[int64](core.ConfigForNF(4096), randx.New(9))
	for v := int64(50); v < 150; v++ {
		bs.Feed(v)
	}
	b, _ := bs.Finalize()
	r, err := ValueSetResemblance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r.CommonValues != 50 {
		t.Fatalf("common = %d", r.CommonValues)
	}
	if math.Abs(r.Jaccard-50.0/150) > 1e-12 {
		t.Fatalf("jaccard = %v", r.Jaccard)
	}
	if math.Abs(r.ContainmentAinB-0.5) > 1e-12 || math.Abs(r.ContainmentBinA-0.5) > 1e-12 {
		t.Fatalf("containments %v %v", r.ContainmentAinB, r.ContainmentBinA)
	}
}

func TestValueSetResemblanceErrors(t *testing.T) {
	a := exhaustiveSample(t, 10)
	if _, err := ValueSetResemblance[int64](a, nil); err == nil {
		t.Error("nil sample accepted")
	}
	empty := exhaustiveSample(t, 10)
	empty.Hist.Reset()
	if _, err := ValueSetResemblance(a, empty); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestEstimatesFromMergedWarehouseSample(t *testing.T) {
	// End-to-end: partitioned sampling, merge, then estimate — the full
	// warehouse analytics loop, checked against ground truth.
	rng := randx.New(10)
	cfg := core.ConfigForNF(2048)
	const parts = 16
	const per = 4096
	var samples []*core.Sample[int64]
	for i := int64(0); i < parts; i++ {
		hr := core.NewHR[int64](cfg, rng.Split())
		for v := i * per; v < (i+1)*per; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	m, err := core.MergeTree(samples, core.HRMerge, rng)
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	est, err := e.Count(func(v int64) bool { return v%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	truth := float64(parts*per) / 2
	if math.Abs(est.Value-truth) > 6*est.StdErr+1 {
		t.Fatalf("count %v ± %v, truth %v", est.Value, est.StdErr, truth)
	}
}

func TestGroupBy(t *testing.T) {
	// Exhaustive data with three groups of known sizes.
	hr := core.NewHR[int64](core.ConfigForNF(4096), randx.New(20))
	for i := int64(0); i < 600; i++ {
		hr.Feed(i % 3) // groups 0,1,2 each 200 elements
	}
	s, _ := hr.Finalize()
	e := New(s)
	groups, err := GroupBy(e, func(v int64) int64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 3 {
		t.Fatalf("%d groups", len(groups))
	}
	for _, g := range groups {
		if !g.Count.Exact || g.Count.Value != 200 {
			t.Fatalf("group %d: %+v", g.Key, g.Count)
		}
		if math.Abs(g.Share.Value-1.0/3) > 1e-12 {
			t.Fatalf("group %d share %v", g.Key, g.Share.Value)
		}
	}
}

func TestGroupBySampledCalibration(t *testing.T) {
	// Sampled data: skewed groups; estimates must track truth within CI.
	s := reservoirSample(t, 21, 30000, 2048)
	e := New(s)
	// Group by decile: group g holds values [3000g, 3000(g+1)).
	groups, err := GroupBy(e, func(v int64) int64 { return v / 3000 })
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 10 {
		t.Fatalf("%d groups", len(groups))
	}
	for _, g := range groups {
		if math.Abs(g.Count.Value-3000) > 6*g.Count.StdErr+1 {
			t.Fatalf("group %d count %v ± %v, truth 3000", g.Key, g.Count.Value, g.Count.StdErr)
		}
	}
	// Sorted by decreasing estimate.
	for i := 1; i < len(groups); i++ {
		if groups[i].Count.Value > groups[i-1].Count.Value {
			t.Fatal("groups not sorted")
		}
	}
}

func TestGroupByEmptySample(t *testing.T) {
	s := reservoirSample(t, 22, 1000, 64)
	s.Hist.Reset()
	if _, err := GroupBy(New(s), func(v int64) int64 { return v }); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestDiff(t *testing.T) {
	a := Estimate{Value: 100, StdErr: 3, Lo: 94.1, Hi: 105.9}
	b := Estimate{Value: 60, StdErr: 4, Lo: 52.2, Hi: 67.8}
	d := Diff(a, b)
	if d.Value != 40 {
		t.Fatalf("value %v", d.Value)
	}
	if math.Abs(d.StdErr-5) > 1e-12 {
		t.Fatalf("stderr %v, want 5 (3-4-5)", d.StdErr)
	}
	if d.Exact {
		t.Fatal("non-exact inputs marked exact")
	}
	e := Diff(Estimate{Value: 10, Exact: true}, Estimate{Value: 4, Exact: true})
	if !e.Exact || e.Value != 6 || e.StdErr != 0 {
		t.Fatalf("exact diff: %+v", e)
	}
}

func TestDiffCoverageDayOverDay(t *testing.T) {
	// Two independent samples of populations with known count difference;
	// the Diff CI must cover the true difference at roughly nominal rate.
	const trials = 300
	covered := 0
	for trial := 0; trial < trials; trial++ {
		sa := reservoirSample(t, uint64(trial)*2+100, 20000, 1024) // 5000 below 5000
		sb := reservoirSample(t, uint64(trial)*2+101, 30000, 1024) // 5000 below 5000
		ca, err := New(sa).Count(func(v int64) bool { return v < 5000 })
		if err != nil {
			t.Fatal(err)
		}
		cb, err := New(sb).Count(func(v int64) bool { return v < 5000 })
		if err != nil {
			t.Fatal(err)
		}
		d := Diff(ca, cb)
		if d.Lo <= 0 && 0 <= d.Hi {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.88 || rate > 1.0 {
		t.Fatalf("diff CI coverage %v", rate)
	}
}

func TestQuantilesAndEquiDepth(t *testing.T) {
	s := reservoirSample(t, 30, 100000, 4096)
	oe, err := NewOrdered(s, func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	qs, err := oe.Quantiles(0.25, 0.5, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	wants := []float64{25000, 50000, 75000}
	for i, q := range qs {
		if math.Abs(float64(q)-wants[i]) > 5000 {
			t.Errorf("quantile %d: %d, want ~%v", i, q, wants[i])
		}
	}
	bounds, err := oe.EquiDepth(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("%d bounds", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatal("bounds not monotone")
		}
	}
	if _, err := oe.EquiDepth(1); err == nil {
		t.Error("b=1 accepted")
	}
	if _, err := oe.Quantiles(0.5, 1.5); err == nil {
		t.Error("out-of-range quantile accepted")
	}
}

func TestJoinSizeEstimateExhaustive(t *testing.T) {
	// Exhaustive samples give the exact join size.
	mk := func(counts map[int64]int64, seed uint64) *core.Sample[int64] {
		hr := core.NewHR[int64](core.ConfigForNF(4096), randx.New(seed))
		for v, c := range counts {
			hr.FeedN(v, c)
		}
		s, _ := hr.Finalize()
		if s.Kind != core.Exhaustive {
			t.Fatal("setup: not exhaustive")
		}
		return s
	}
	a := mk(map[int64]int64{1: 2, 2: 3, 3: 1}, 1)
	b := mk(map[int64]int64{2: 4, 3: 5, 4: 7}, 2)
	got, err := JoinSizeEstimate(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3*4 + 1*5) // keys 2 and 3
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("join size %v, want %v", got, want)
	}
}

func TestJoinSizeEstimateSampledFKJoin(t *testing.T) {
	// FK join: every fk value hits exactly one pk row, so |A ⋈ B| = |A|.
	// Dense domain so sampled intersections are plentiful.
	const domain = 2000
	const nA = 100000
	pk := core.NewHR[int64](core.ConfigForNF(1024), randx.New(3))
	for v := int64(1); v <= domain; v++ {
		pk.Feed(v)
	}
	pkS, _ := pk.Finalize()
	fk := core.NewHR[int64](core.ConfigForNF(1024), randx.New(4))
	for i := int64(0); i < nA; i++ {
		fk.Feed(i%domain + 1)
	}
	fkS, _ := fk.Finalize()
	got, err := JoinSizeEstimate(fkS, pkS)
	if err != nil {
		t.Fatal(err)
	}
	// Expected |join| = nA; the plug-in estimator over two ~50% samples
	// recovers roughly intersection-fraction × truth. Accept a broad band
	// around truth (the documented bias is downward).
	if got < float64(nA)*0.1 || got > float64(nA)*2 {
		t.Fatalf("join estimate %v, truth %d", got, nA)
	}
}

func TestJoinSizeEstimateErrors(t *testing.T) {
	a := exhaustiveSample(t, 10)
	if _, err := JoinSizeEstimate[int64](a, nil); err == nil {
		t.Error("nil accepted")
	}
	empty := exhaustiveSample(t, 10)
	empty.Hist.Reset()
	if _, err := JoinSizeEstimate(a, empty); err == nil {
		t.Error("empty accepted")
	}
}

// NewOrdered sorts the expanded bag without sort.SliceStable's reflection;
// every quantile must come out as the stable sort's did, whatever order the
// histogram holds its entries in.
func TestNewOrderedMatchesStableSort(t *testing.T) {
	src := randx.New(17)
	bags := map[string][]int64{}
	for i := 0; i < 5000; i++ {
		bags["random"] = append(bags["random"], int64(src.Uint64()%1000000)-500000)
		bags["duplicate-heavy"] = append(bags["duplicate-heavy"], int64(src.Uint64()%13))
		bags["sorted"] = append(bags["sorted"], int64(i/3))
		bags["reverse-sorted"] = append(bags["reverse-sorted"], int64((5000-i)/2))
	}
	less := func(a, b int64) bool { return a < b }
	for name, bag := range bags {
		s := &core.Sample[int64]{Kind: core.ReservoirKind, ParentSize: 1 << 20, Config: core.ConfigForNF(8192),
			Hist: histogram.FromBag(histogram.DefaultSizeModel, bag)}
		oe, err := NewOrdered(s, less)
		if err != nil {
			t.Fatal(err)
		}
		want := s.Hist.Expand()
		sort.SliceStable(want, func(i, j int) bool { return less(want[i], want[j]) })
		for i := 0; i <= 1000; i++ {
			q := float64(i) / 1000
			got, err := oe.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			if ref := want[int(q*float64(len(want)-1))]; got != ref {
				t.Fatalf("%s: quantile %v = %d, stable sort says %d", name, q, got, ref)
			}
		}
	}
}
