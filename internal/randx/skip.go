package randx

import (
	"fmt"
	"math"
)

// Skipper generates the random skip lengths used by reservoir sampling: the
// paper's skip(n; k) primitive. After t elements of the stream have been
// processed with a full reservoir of size k, Skip(t) returns the number s of
// subsequent elements to bypass; element t+s+1 is the next to be inserted.
//
// The skip S(k, t) has tail distribution
//
//	P{S > s} = Π_{j=t+1}^{t+s} (j−k)/j,
//
// the probability that none of the next s elements would enter a reservoir.
// Two generation algorithms from Vitter's "Random Sampling with a Reservoir"
// (ACM TOMS 1985) are provided:
//
//   - Algorithm X: direct inversion by sequential search, O(s) per skip;
//   - Algorithm Z: acceptance–rejection with a squeeze, O(1) expected per
//     skip, used once t exceeds thresholdFactor·k.
//
// A Skipper carries the persistent W state that Algorithm Z threads between
// calls, so each reservoir sampler owns one Skipper.
type Skipper struct {
	k   int64
	src Source
	w   float64 // Algorithm Z state; 0 means "not yet initialized"

	// ForceX and ForceZ pin the algorithm choice for ablation benchmarks;
	// both false selects by threshold as Vitter prescribes.
	ForceX bool
	ForceZ bool
}

// thresholdFactor is Vitter's T: Algorithm X is used while t ≤ T·k, after
// which Algorithm Z's constant expected cost wins.
const thresholdFactor = 22

// NewSkipper returns a skip generator for reservoir size k drawing
// randomness from src. It panics if k < 1.
func NewSkipper(src Source, k int64) *Skipper {
	if k < 1 {
		panic(fmt.Sprintf("randx: NewSkipper with k = %d < 1", k))
	}
	return &Skipper{k: k, src: src}
}

// K returns the reservoir size the skipper was built for.
func (sk *Skipper) K() int64 { return sk.k }

// Skip returns the number of stream elements to bypass given that t elements
// have been processed so far (t ≥ k). The element at 1-based index
// t + Skip(t) + 1 is the next to insert into the reservoir.
func (sk *Skipper) Skip(t int64) int64 {
	if t < sk.k {
		panic(fmt.Sprintf("randx: Skip called with t = %d < k = %d", t, sk.k))
	}
	if sk.ForceX || (!sk.ForceZ && t <= thresholdFactor*sk.k) {
		return sk.skipX(t)
	}
	return sk.skipZ(t)
}

// skipX is Vitter's Algorithm X: find the smallest s with P{S > s} ≤ V by
// walking the product form of the tail distribution.
func (sk *Skipper) skipX(t int64) int64 {
	v := Float64Open(sk.src)
	var s int64
	tt := float64(t + 1)
	quot := (tt - float64(sk.k)) / tt
	for quot > v {
		s++
		tt++
		quot *= (tt - float64(sk.k)) / tt
	}
	return s
}

// skipZ is Vitter's Algorithm Z: rejection from the continuous envelope
// g(x) = (k/t)·(t/(t+x))^{k+1} with an inner squeeze that accepts most
// candidates without evaluating the exact acceptance function.
func (sk *Skipper) skipZ(t int64) int64 {
	n := float64(sk.k)
	ft := float64(t)
	if sk.w == 0 {
		sk.w = math.Exp(-math.Log(Float64Open(sk.src)) / n)
	}
	term := ft - n + 1
	for {
		u := Float64Open(sk.src)
		x := ft * (sk.w - 1)
		s := math.Floor(x)
		// Squeeze acceptance (cheap test).
		lhs := math.Exp(math.Log(u*(ft+1)/term*(ft+1)/term*(term+s)/(ft+x)) / n)
		rhs := (ft + x) / (term + s) * term / ft
		if lhs <= rhs {
			sk.w = rhs / lhs
			return int64(s)
		}
		// Full acceptance test.
		y := u * (ft + 1) / term * (ft + s + 1) / (ft + x)
		var denom, numerLim float64
		if n < s {
			denom = ft
			numerLim = term + s
		} else {
			denom = ft - n + s
			numerLim = ft + 1
		}
		for numer := ft + s; numer >= numerLim; numer-- {
			y = y * numer / denom
			denom--
		}
		sk.w = math.Exp(-math.Log(Float64Open(sk.src)) / n)
		if math.Exp(math.Log(y)/n) <= (ft+x)/ft {
			return int64(s)
		}
	}
}
