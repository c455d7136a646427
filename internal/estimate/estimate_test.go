package estimate

import (
	"math"
	"slices"
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
	med, err := oe.Quantile(0.5)
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

// Tied groups and tied values list in ascending key whatever the sample's
// entry order or the map's iteration order: one call after another gives one
// answer.
func TestTiesListInKeyOrder(t *testing.T) {
	// Values 0..63 in a shuffled entry order; a value in an odd block of
	// eight occurs twice, so blocks 1, 3, 5, 7 tie at 16 and 0, 2, 4, 6 at 8.
	entries := make([]histogram.Entry[int64], 64)
	var size int64
	for v := range int64(64) {
		entries[v] = histogram.Entry[int64]{Value: v, Count: 1 + v/8%2}
		size += entries[v].Count
	}
	r := randx.New(40)
	for i := len(entries) - 1; i > 0; i-- {
		j := randx.Intn(r, i+1)
		entries[i], entries[j] = entries[j], entries[i]
	}
	s := &core.Sample[int64]{Kind: core.ReservoirKind, Hist: histogram.FromEntries(histogram.DefaultSizeModel, entries),
		ParentSize: 10 * size, Config: core.ConfigForNF(1024)}
	e := New(s)

	var groups []int64
	for i := range 20 {
		gs, err := GroupBy(e, func(v int64) int64 { return v / 8 })
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]int64, len(gs))
		for j, g := range gs {
			keys[j] = g.Key
		}
		if i == 0 {
			groups = keys
		} else if !slices.Equal(keys, groups) {
			t.Fatalf("call %d: groups %v, first call %v", i, keys, groups)
		}
	}
	if want := []int64{1, 3, 5, 7, 0, 2, 4, 6}; !slices.Equal(groups, want) {
		t.Fatalf("groups %v, want %v", groups, want)
	}

	top := e.TopK(64)
	for i := range 20 {
		if again := e.TopK(64); !slices.Equal(again, top) {
			t.Fatalf("call %d: TopK %v, first call %v", i, again, top)
		}
	}
	var values, want []int64
	for _, f := range top {
		values = append(values, f.Value)
	}
	for _, c := range []int64{2, 1} {
		for v := range int64(64) {
			if 1+v/8%2 == c {
				want = append(want, v)
			}
		}
	}
	if !slices.Equal(values, want) {
		t.Fatalf("TopK values %v, want %v", values, want)
	}
}

func TestGroupByEmptySample(t *testing.T) {
	s := reservoirSample(t, 22, 1000, 64)
	s.Hist.Reset()
	if _, err := GroupBy(New(s), func(v int64) int64 { return v }); err == nil {
		t.Fatal("empty sample accepted")
	}
}

func TestQuantilesAndEquiDepth(t *testing.T) {
	s := reservoirSample(t, 30, 100000, 4096)
	oe, err := NewOrdered(s, func(a, b int64) bool { return a < b })
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []float64{0.25, 0.5, 0.75} {
		v, err := oe.Quantile(q)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(i+1) * 25000; math.Abs(float64(v)-want) > 5000 {
			t.Errorf("quantile %v: %d, want ~%v", q, v, want)
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

// TestOrderedWalkMatchesBagSort holds Quantile and EquiDepth to
// expanding the sample and sorting the bag, for q = 0, 0.01, …, 1: over
// entries already in value order (walked in place), in another order (copied
// and sorted once), heavily duplicated, a single entry and nothing at all. A
// sample in value order costs NewOrdered nothing beyond the estimator.
func TestOrderedWalkMatchesBagSort(t *testing.T) {
	less := func(a, b int64) bool { return a < b }
	src := randx.New(23)
	var random, heavy []histogram.Entry[int64]
	for v := int64(0); v < 400; v++ {
		random = append(random, histogram.Entry[int64]{Value: 3*v - 500, Count: 1 + int64(src.Uint64()%3)})
	}
	for v := int64(0); v < 5; v++ {
		heavy = append(heavy, histogram.Entry[int64]{Value: v * v, Count: 1 + int64(src.Uint64()%700)})
	}
	shuffle := func(es []histogram.Entry[int64]) []histogram.Entry[int64] {
		es = slices.Clone(es)
		for i := len(es) - 1; i > 0; i-- {
			j := int(src.Uint64() % uint64(i+1))
			es[i], es[j] = es[j], es[i]
		}
		return es
	}
	for _, tc := range []struct {
		name    string
		entries []histogram.Entry[int64]
	}{
		{"sorted", random},
		{"unsorted", shuffle(random)},
		{"heavy-duplicate", heavy},
		{"heavy-duplicate unsorted", shuffle(heavy)},
		{"single entry", []histogram.Entry[int64]{{Value: 42, Count: 9}}},
		{"empty", nil},
	} {
		h := histogram.FromEntries(histogram.DefaultSizeModel, slices.Clone(tc.entries))
		s := &core.Sample[int64]{Kind: core.ReservoirKind, ParentSize: 1 << 20, Config: core.ConfigForNF(8192), Hist: h}
		before := h.Entries()
		oe, err := NewOrdered(s, less)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(h.Entries(), before) {
			t.Fatalf("%s: NewOrdered reordered the sample", tc.name)
		}
		bag := h.Expand()
		slices.Sort(bag)
		var qs []float64
		for i := 0; i <= 100; i++ {
			qs = append(qs, float64(i)/100)
		}
		if len(bag) == 0 {
			if got, err := oe.Quantile(0.5); err == nil {
				t.Fatalf("%s: the median of an empty sample: %v", tc.name, got)
			}
			if _, err := oe.EquiDepth(4); err == nil {
				t.Fatalf("%s: equi-depth bounds of an empty sample", tc.name)
			}
			continue
		}
		for _, q := range qs {
			want := bag[int(q*float64(len(bag)-1))]
			if got, err := oe.Quantile(q); err != nil || got != want {
				t.Fatalf("%s: quantile %v = %d, %v; the sorted bag says %d", tc.name, q, got, err, want)
			}
		}
		for b := 2; b <= 10; b++ {
			bounds, err := oe.EquiDepth(b)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			for i, v := range bounds {
				if want := bag[int(float64(i+1)/float64(b)*float64(len(bag)-1))]; v != want {
					t.Fatalf("%s: EquiDepth(%d) bound %d = %d, the sorted bag says %d", tc.name, b, i, v, want)
				}
			}
		}
	}

	s := &core.Sample[int64]{Kind: core.ReservoirKind, ParentSize: 1 << 20, Config: core.ConfigForNF(8192),
		Hist: histogram.FromEntries(histogram.DefaultSizeModel, slices.Clone(random))}
	base := testing.AllocsPerRun(100, func() { _, _ = NewWithConfidence(s, 0.95) })
	ordered := testing.AllocsPerRun(100, func() { _, _ = NewOrdered(s, less) })
	if ordered > base+1 {
		t.Errorf("NewOrdered on a sample in value order allocates %v times, the estimator alone %v", ordered, base)
	}
}
