package server

import (
	"context"
	"errors"
	"time"
)

// errShed marks a request rejected by admission control; the HTTP layer maps
// it to 429 + Retry-After.
var errShed = errors.New("server: admission queue full")

// limiter is one endpoint class's admission gate: a fixed number of
// execution slots plus a bounded queue of waiters. A request acquires a slot
// immediately if one is free; otherwise it takes a queue position (shedding
// if the queue is full) and waits up to the queue-wait bound for a slot.
// Shedding at the queue instead of stacking unbounded goroutines is what
// keeps tail latency flat under overload: a client is told "come back later"
// in microseconds instead of timing out after its whole deadline.
type limiter struct {
	slots chan struct{} // execution slots; len == running requests
	queue chan struct{} // queue positions; len == waiting requests
	wait  time.Duration // max time a request may sit queued
}

// newLimiter builds a limiter with the given concurrency, a queue twice as
// deep and the queueWait bound.
func newLimiter(concurrency int) *limiter {
	return &limiter{
		slots: make(chan struct{}, concurrency),
		queue: make(chan struct{}, 2*concurrency),
		wait:  queueWait,
	}
}

// acquire takes an execution slot, queuing for up to the wait bound. It
// returns errShed when the queue is full or the wait expires, and ctx.Err()
// when the request's own deadline fires first. A nil error means the caller
// holds a slot and must release() it.
func (l *limiter) acquire(ctx context.Context) error {
	select {
	case l.slots <- struct{}{}:
		return nil
	default:
	}
	select {
	case l.queue <- struct{}{}:
	default:
		return errShed
	}
	defer func() { <-l.queue }()
	t := time.NewTimer(l.wait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return nil
	case <-t.C:
		return errShed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release returns the slot taken by a successful acquire.
func (l *limiter) release() { <-l.slots }

// inflight returns the number of currently executing requests in the class.
func (l *limiter) inflight() int { return len(l.slots) }

// queued returns the number of currently queued requests in the class.
func (l *limiter) queued() int { return len(l.queue) }
