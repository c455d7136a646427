package server

import (
	"testing"
	"time"
)

// testClock is an injectable clock for breaker tests.
type testClock struct{ now time.Time }

func (c *testClock) advance(d time.Duration) { c.now = c.now.Add(d) }

// newTestBreaker builds a breaker over a window of the given length that may
// trip from minSamples outcomes on, open for a second, on an injectable
// clock. Production breakers keep breakerWindow and breakerMinSamples; the
// small windows here make every transition a few calls away.
func newTestBreaker(window, minSamples int) (*breaker, *testClock) {
	b := newBreaker(time.Second)
	b.outcomes, b.minSamples = make([]bool, window), minSamples
	clk := &testClock{now: time.Unix(0, 0)}
	b.now = func() time.Time { return clk.now }
	return b, clk
}

func TestBreakerTripsOnFailureRatio(t *testing.T) {
	b, _ := newTestBreaker(8, 4)
	// Below the minimum nothing trips, even at 100% failure.
	b.Record(false)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v before the minimum, want closed", b.State())
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after 4/4 failures, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("open breaker must reject instantly")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(4, 2)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("must reject before OpenFor elapses")
	}
	clk.advance(1100 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = %v, %v after OpenFor, want one probe admitted", ok, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half_open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("only one probe may be in flight")
	}
	// Probe succeeds: breaker closes with a fresh window.
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
	if ok, probe := b.Allow(); !ok || probe {
		t.Fatalf("Allow() = %v, %v on closed breaker, want plain admit", ok, probe)
	}
	// One failure on the fresh window must not trip (the minimum again).
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after one failure on fresh window, want closed", b.State())
	}
}

func TestBreakerReopensOnFailedProbe(t *testing.T) {
	b, clk := newTestBreaker(4, 2)
	b.Record(false)
	b.Record(false)
	clk.advance(2 * time.Second)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe must be admitted")
	}
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", b.State())
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("re-opened breaker must reject")
	}
	// The re-open restarts the OpenFor clock.
	clk.advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("second probe after OpenFor must be admitted")
	}
}

func TestBreakerRollingWindow(t *testing.T) {
	b, _ := newTestBreaker(4, 4)
	// 2 fails then 4 successes: the fails age out of the window.
	b.Record(false)
	b.Record(false)
	b.Record(true)
	b.Record(true)
	// Window now [F F T T] = 50% → would trip at exactly the ratio; this
	// ordering reaches the minimum at the trip point.
	if b.State() != BreakerOpen {
		t.Fatalf("state %v at exactly the failure ratio, want open", b.State())
	}
}

func TestBreakerCancelProbeReleasesSlot(t *testing.T) {
	b, clk := newTestBreaker(4, 2)
	b.Record(false)
	b.Record(false)
	clk.advance(1100 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = %v, %v, want probe admitted", ok, probe)
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("slot held: second probe must be rejected")
	}
	// The probe attempt is abandoned (lost a hedge race, coordinator
	// returned early): releasing the slot must admit a replacement probe
	// immediately, not fence the peer until restart.
	b.CancelProbe()
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = %v, %v after CancelProbe, want replacement probe", ok, probe)
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful replacement probe, want closed", b.State())
	}
}

func TestBreakerProbeLatchExpires(t *testing.T) {
	b, clk := newTestBreaker(4, 2)
	b.Record(false)
	b.Record(false)
	clk.advance(1100 * time.Millisecond)
	if ok, _ := b.Allow(); !ok {
		t.Fatal("probe must be admitted")
	}
	if ok, _ := b.Allow(); ok {
		t.Fatal("slot held: second probe must be rejected")
	}
	// The probe holder never settles the slot (no Record, no CancelProbe).
	// After another OpenFor the latch expires and a replacement probe goes
	// through — a leaked probe can delay recovery but never fence forever.
	clk.advance(1100 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatalf("Allow() = %v, %v after latch expiry, want replacement probe", ok, probe)
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state %v, want closed", b.State())
	}
}
