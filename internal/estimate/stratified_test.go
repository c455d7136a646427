package estimate

import (
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/randx"
)

// stratifiedFixture builds a stratified sample with strata of very
// different value ranges (where stratification should shine).
func stratifiedFixture(t *testing.T, seed uint64) (*core.Stratified[int64], float64, float64) {
	t.Helper()
	r := randx.New(seed)
	cfg := core.ConfigForNF(512)
	var strata []*core.Sample[int64]
	var truthSum float64
	var truthN float64
	// Stratum h holds 10000 values clustered near h*1000.
	for h := int64(0); h < 4; h++ {
		hr := core.NewHR[int64](cfg, r.Split())
		for i := int64(0); i < 10000; i++ {
			v := h*1000 + i%100
			hr.Feed(v)
			truthSum += float64(v)
			truthN++
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		strata = append(strata, s)
	}
	st, err := core.NewStratified(strata...)
	if err != nil {
		t.Fatal(err)
	}
	return st, truthSum, truthN
}

func TestStratifiedSumAndAvg(t *testing.T) {
	st, truthSum, truthN := stratifiedFixture(t, 1)
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum.Value-truthSum) > 6*sum.StdErr+1 {
		t.Fatalf("sum %v ± %v, truth %v", sum.Value, sum.StdErr, truthSum)
	}
	avg, err := e.Avg(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg.Value-truthSum/truthN) > 6*avg.StdErr+0.1 {
		t.Fatalf("avg %v, truth %v", avg.Value, truthSum/truthN)
	}
}

func TestStratifiedCountAndFraction(t *testing.T) {
	st, _, truthN := stratifiedFixture(t, 2)
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	// Predicate: values in stratum 0's range (v < 1000): exactly 10000.
	pred := func(v int64) bool { return v < 1000 }
	cnt, err := Interval(Design[int64]{Strata: st}, pred, false, e.z)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cnt.Value-10000) > 6*cnt.StdErr+1 {
		t.Fatalf("count %v ± %v, truth 10000", cnt.Value, cnt.StdErr)
	}
	frac, err := Interval(Design[int64]{Strata: st}, pred, true, e.z)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(frac.Value-10000/truthN) > 0.05 {
		t.Fatalf("fraction %v", frac.Value)
	}
	if frac.Hi > 1 || frac.Lo < 0 {
		t.Fatalf("fraction bounds %v..%v", frac.Lo, frac.Hi)
	}
}

func TestStratifiedTighterThanMergedForSeparatedStrata(t *testing.T) {
	// With strata centred far apart, the stratified SUM standard error must
	// beat the merged-sample standard error (between-strata variance is
	// eliminated). Compare analytically computed StdErrs.
	st, _, _ := stratifiedFixture(t, 3)
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	stratSum, err := e.Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	// Merged sample of the same strata (consumes clones).
	var clones []*core.Sample[int64]
	for _, s := range st.Strata() {
		clones = append(clones, s.Clone())
	}
	r := randx.New(4)
	m, err := core.MergeTree(clones, core.HRMerge, r)
	if err != nil {
		t.Fatal(err)
	}
	mergedSum, err := New(m).Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if stratSum.StdErr >= mergedSum.StdErr {
		t.Fatalf("stratified se %v not tighter than merged se %v (merged sample is 4x smaller but between-strata variance dominates)",
			stratSum.StdErr, mergedSum.StdErr)
	}
}

func TestStratifiedExactWhenAllExhaustive(t *testing.T) {
	r := randx.New(5)
	cfg := core.ConfigForNF(1 << 16)
	var strata []*core.Sample[int64]
	for h := int64(0); h < 3; h++ {
		hr := core.NewHR[int64](cfg, r.Split())
		for i := int64(0); i < 100; i++ {
			hr.Feed(h*100 + i)
		}
		s, _ := hr.Finalize()
		strata = append(strata, s)
	}
	st, err := core.NewStratified(strata...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := e.Sum(func(v int64) float64 { return float64(v) })
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Exact || sum.StdErr != 0 {
		t.Fatalf("exhaustive strata not exact: %+v", sum)
	}
	// Truth: sum of 0..299 = 299*300/2.
	if sum.Value != 299*300/2 {
		t.Fatalf("sum = %v", sum.Value)
	}
}

func TestStratifiedErrors(t *testing.T) {
	if _, err := NewStratified[int64](nil); err == nil {
		t.Fatal("nil stratified accepted")
	}
	st, _, _ := stratifiedFixture(t, 6)
	st.Strata()[1].Hist.Reset()
	e, err := NewStratified(st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Sum(func(v int64) float64 { return float64(v) }); err == nil {
		t.Fatal("empty stratum accepted")
	}
}
