package server

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// BreakerClosed: traffic flows; outcomes are recorded in the rolling
	// window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer is considered down; every Allow fails instantly
	// (no deadline budget is spent) until its open period elapses.
	BreakerOpen
	// BreakerHalfOpen: the open period elapsed; exactly one probe request is
	// let through. Success closes the breaker, failure re-opens it.
	BreakerHalfOpen
)

// String returns the conventional state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	default:
		return "invalid"
	}
}

// A breaker trips when at least breakerMinSamples of its last breakerWindow
// outcomes are recorded and breakerFailureRatio of them failed. The minimum
// keeps a single failed request against a cold peer from opening it.
const (
	breakerWindow       = 16
	breakerMinSamples   = 4
	breakerFailureRatio = 0.5
)

// breaker is a per-peer circuit breaker over a rolling outcome window.
// Closed → (failure ratio over window) → open → (openFor elapses) →
// half-open single probe → closed or open again. Safe for concurrent use.
type breaker struct {
	openFor    time.Duration
	minSamples int
	now        func() time.Time // injectable clock for tests

	mu         sync.Mutex
	outcomes   []bool // ring of success flags
	idx        int
	filled     int
	fails      int
	state      BreakerState
	openedAt   time.Time
	probing    bool      // a half-open probe is in flight
	probeStart time.Time // when the in-flight probe was admitted
}

// newBreaker builds a closed breaker that, once open, rejects for openFor
// before letting a half-open probe through.
func newBreaker(openFor time.Duration) *breaker {
	return &breaker{
		openFor:    openFor,
		minSamples: breakerMinSamples,
		now:        time.Now,
		outcomes:   make([]bool, breakerWindow),
	}
}

// Allow reports whether a request to the peer may proceed. In the open state
// it returns false instantly — the caller skips the peer without spending
// any of its deadline budget. After openFor it admits one half-open probe;
// probe is true for that call, and its holder must settle the slot with
// Record (outcome) or CancelProbe (attempt abandoned). As a backstop against
// a holder that does neither, the slot expires after another openFor and a
// replacement probe is admitted — the latch can delay recovery but never
// fence a healthy peer permanently.
func (b *breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.openFor {
			return false, false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.probeStart = b.now()
		return true, true
	case BreakerHalfOpen:
		if b.probing && b.now().Sub(b.probeStart) < b.openFor {
			return false, false
		}
		b.probing = true
		b.probeStart = b.now()
		return true, true
	}
	return false, false
}

// CancelProbe releases the half-open probe slot without recording an
// outcome — for probe attempts that were abandoned (lost hedge race,
// coordinator returned before gathering the result) and therefore prove
// nothing about the peer. The next Allow admits a fresh probe.
func (b *breaker) CancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.probing = false
	}
}

// Record feeds one request outcome back. Cancellations that are not the
// peer's fault (a lost hedge race) must not be recorded.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.reset()
			return
		}
		b.trip()
		return
	case BreakerOpen:
		// A straggler from before the trip; the window restarts on probe.
		return
	}
	if b.filled == len(b.outcomes) {
		if !b.outcomes[b.idx] {
			b.fails--
		}
	} else {
		b.filled++
	}
	b.outcomes[b.idx] = ok
	if !ok {
		b.fails++
	}
	b.idx = (b.idx + 1) % len(b.outcomes)
	if b.filled >= b.minSamples &&
		float64(b.fails) >= breakerFailureRatio*float64(b.filled) {
		b.trip()
	}
}

// trip opens the breaker; callers hold b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.probing = false
}

// reset closes the breaker and clears the window; callers hold b.mu.
func (b *breaker) reset() {
	b.state = BreakerClosed
	b.idx, b.filled, b.fails = 0, 0, 0
	b.probing = false
}

// State returns the current position (open flips to half-open lazily in
// Allow, so a long-idle open breaker still reports open here).
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
