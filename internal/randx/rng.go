// Package randx provides the random-variate substrate for the sample
// warehouse: a deterministic, splittable pseudo-random number generator plus
// the special functions and non-uniform variate generators that the
// Brown/Haas sampling algorithms require (binomial, hypergeometric, Zipf,
// normal quantiles, regularized incomplete beta, and Vitter's reservoir
// "skip" functions).
//
// Everything in this package is pure computation over a caller-supplied
// Source, so all downstream sampling is reproducible from a seed and safe to
// run in parallel (each parallel sampler gets its own Split-off stream).
package randx

import "math/bits"

// Source is the minimal interface the variate generators need. It matches
// the method set of *RNG and is satisfied by any 64-bit generator.
type Source interface {
	// Uint64 returns a uniformly distributed 64-bit value.
	Uint64() uint64
}

// RNG is a PCG-XSL-RR 128/64 pseudo-random number generator. It is small
// (two words of state), fast, statistically strong, and — critically for the
// warehouse — cheap to split into independent streams: every odd increment
// selects a distinct sequence.
//
// The zero value is not ready for use; construct with New or NewStream.
type RNG struct {
	hi, lo uint64 // 128-bit state
	incHi  uint64 // 128-bit increment (low word always odd)
	incLo  uint64
}

// New returns an RNG seeded deterministically from seed. Two RNGs created
// with the same seed produce identical output.
func New(seed uint64) *RNG {
	return NewStream(seed, 0)
}

// NewStream returns an RNG on an independent stream selected by stream.
// RNGs with the same seed but different stream values produce statistically
// independent sequences; this is how per-partition samplers are seeded.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{
		incHi: mix64(stream),
		incLo: stream<<1 | 1, // increment must be odd
	}
	// Standard PCG initialization: advance once, mix in the seed, advance.
	r.step()
	r.lo += seed
	r.hi += mix64(seed)
	r.step()
	r.step()
	return r
}

// Split returns a new RNG on an independent stream derived from the current
// generator state. The parent generator advances, so successive Splits yield
// distinct children.
func (r *RNG) Split() *RNG {
	return NewStream(r.Uint64(), r.Uint64())
}

// mix64 is the SplitMix64 finalizer, used to diffuse seeds.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// step advances the 128-bit LCG state: state = state*mul + inc.
func (r *RNG) step() {
	const mulHi = 2549297995355413924
	const mulLo = 4865540595714422341
	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	var carry uint64
	lo, carry = bits.Add64(lo, r.incLo, 0)
	hi, _ = bits.Add64(hi, r.incHi, carry)
	r.hi, r.lo = hi, lo
}

// Uint64 returns the next uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	hi, lo := r.hi, r.lo
	r.step()
	// XSL-RR output function: xor-fold the state, then rotate by the top
	// six bits of the pre-advance state.
	x := hi ^ lo
	rot := uint(hi >> 58)
	return bits.RotateLeft64(x, -int(rot))
}

// Float64 returns a uniform random number in [0, 1) with 53 bits of
// precision. This is the paper's uniform() primitive.
func Float64(s Source) float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Float64Open returns a uniform random number in the open interval (0, 1),
// useful where a logarithm of the variate is taken.
func Float64Open(s Source) float64 {
	for {
		u := Float64(s)
		if u > 0 {
			return u
		}
	}
}

// Uint64n returns a uniform random integer in [0, n). It panics if n == 0.
// Uses Lemire's multiply-shift rejection method, which is unbiased.
func Uint64n(s Source, n uint64) uint64 {
	if n == 0 {
		panic("randx: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform random int in [0, n). It panics if n <= 0.
func Intn(s Source, n int) int {
	if n <= 0 {
		panic("randx: Intn with n <= 0")
	}
	return int(Uint64n(s, uint64(n)))
}

// Int64n returns a uniform random int64 in [0, n). It panics if n <= 0.
func Int64n(s Source, n int64) int64 {
	if n <= 0 {
		panic("randx: Int64n with n <= 0")
	}
	return int64(Uint64n(s, uint64(n)))
}

// UniformInt returns a random integer uniform in {1, 2, ..., j}: the
// uniformInt(J) primitive from the paper's purgeReservoir pseudocode.
func UniformInt(s Source, j int64) int64 {
	return 1 + Int64n(s, j)
}

// Bernoulli reports true with probability p. Values of p outside [0,1] are
// clamped: p <= 0 is always false, p >= 1 always true.
func Bernoulli(s Source, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return Float64(s) < p
}
