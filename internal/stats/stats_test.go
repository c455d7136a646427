package stats

import (
	"math"
	"testing"

	"samplewh/internal/randx"
)

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 − e^{-x} (exponential CDF).
	for _, x := range []float64{0.1, 1, 3, 10} {
		want := 1 - math.Exp(-x)
		if got := GammaP(1, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := GammaP(0.5, x); math.Abs(got-want) > 1e-12 {
			t.Errorf("GammaP(0.5,%v) = %v, want %v", x, got, want)
		}
	}
	if GammaP(3, 0) != 0 {
		t.Error("GammaP(a,0) != 0")
	}
}

func TestGammaPPanics(t *testing.T) {
	for _, c := range []struct{ a, x float64 }{{0, 1}, {-1, 1}, {1, -1}, {math.NaN(), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("GammaP(%v,%v) did not panic", c.a, c.x)
				}
			}()
			GammaP(c.a, c.x)
		}()
	}
}

func TestChiSquareCDFKnownValues(t *testing.T) {
	// chi2 with 2 df is Exp(1/2): CDF(x) = 1 − e^{-x/2}.
	for _, x := range []float64{0.5, 2, 5.99} {
		want := 1 - math.Exp(-x/2)
		if got := ChiSquareCDF(x, 2); math.Abs(got-want) > 1e-10 {
			t.Errorf("ChiSquareCDF(%v,2) = %v, want %v", x, got, want)
		}
	}
	// Classic critical value: P{X² ≤ 3.841} ≈ 0.95 for df=1.
	if got := ChiSquareCDF(3.841458820694124, 1); math.Abs(got-0.95) > 1e-6 {
		t.Errorf("df=1 critical value CDF = %v", got)
	}
}

func TestChiSquareGOFUniformFit(t *testing.T) {
	// Perfectly uniform observations: statistic 0, p-value 1.
	res, err := ChiSquareGOF([]int64{100, 100, 100, 100}, []float64{100, 100, 100, 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stat != 0 || res.PValue != 1 || res.DF != 3 {
		t.Fatalf("%+v", res)
	}
	if res.Reject(0.05) {
		t.Fatal("perfect fit rejected")
	}
}

func TestChiSquareGOFDetectsSkew(t *testing.T) {
	res, err := ChiSquareGOF([]int64{300, 100, 100, 100}, []float64{150, 150, 150, 150}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject(0.001) {
		t.Fatalf("gross skew not rejected: %+v", res)
	}
}

func TestChiSquareGOFErrors(t *testing.T) {
	if _, err := ChiSquareGOF([]int64{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ChiSquareGOF([]int64{1}, []float64{1}, 0); err == nil {
		t.Error("single cell accepted")
	}
	if _, err := ChiSquareGOF([]int64{1, 1}, []float64{0.5, 1.5}, 0); err == nil {
		t.Error("sparse expected cell accepted")
	}
	if _, err := ChiSquareGOF([]int64{1, 1}, []float64{1, 1}, 1); err == nil {
		t.Error("zero df accepted")
	}
}

func TestChiSquareUniformOnRNG(t *testing.T) {
	r := randx.New(1)
	counts := make([]int64, 16)
	for i := 0; i < 160000; i++ {
		counts[randx.Intn(r, 16)]++
	}
	res, err := ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject(1e-6) {
		t.Fatalf("uniform RNG rejected: %+v", res)
	}
}

func TestChiSquareResultString(t *testing.T) {
	res := ChiSquareResult{Stat: 1.5, DF: 3, PValue: 0.68}
	if res.String() == "" {
		t.Fatal("empty String()")
	}
}
