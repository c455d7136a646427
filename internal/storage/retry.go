package storage

import (
	"fmt"
	"sync"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
)

// RetryPolicy configures RetryStore's backoff. The zero value selects sane
// defaults (4 attempts, 1ms base doubling to a 200ms cap, ±50% jitter).
type RetryPolicy struct {
	// MaxAttempts is the total attempts per operation, including the first
	// (the retry budget). Default 4.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// subsequent attempt. Default 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 200ms.
	MaxDelay time.Duration
	// Jitter spreads each delay uniformly over [1-Jitter, 1+Jitter] times
	// its nominal value, decorrelating concurrent retriers. Default 0.5;
	// set negative for none.
	Jitter float64
	// Seed seeds the jitter randomness. Default 1.
	Seed uint64
	// Sleep is called to wait between attempts; tests inject a recorder or
	// no-op here. Default time.Sleep.
	Sleep func(time.Duration)
}

// normalized fills defaults.
func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 200 * time.Millisecond
	}
	if p.Jitter == 0 {
		p.Jitter = 0.5
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// RetryStore wraps a Store and retries operations that fail with retryable
// errors (per IsRetryable) under capped exponential backoff with jitter.
// Permanent failures — missing keys, corruption, unclassified errors — pass
// straight through; a retryable failure that survives the whole budget is
// returned wrapped with the attempt count. Safe for concurrent use if the
// inner store is.
type RetryStore[V comparable] struct {
	inner Store[V]
	pol   RetryPolicy
	mu    sync.Mutex
	rng   *randx.RNG
	o     retryObs
}

// retryObs bundles the retry metrics (see README.md §Observability):
//
//	storage.retry.retries    re-attempts after a transient failure (counter)
//	storage.retry.exhausted  operations that spent the whole budget (counter)
type retryObs struct {
	reg       *obs.Registry
	retries   *obs.Counter
	exhausted *obs.Counter
}

// NewRetryStore wraps inner with the given retry policy.
func NewRetryStore[V comparable](inner Store[V], pol RetryPolicy) *RetryStore[V] {
	pol = pol.normalized()
	return &RetryStore[V]{inner: inner, pol: pol, rng: randx.New(pol.Seed)}
}

// Instrument routes the retry metrics into reg and forwards to the inner
// store when it is instrumentable. A nil registry reverts to the no-op state.
func (s *RetryStore[V]) Instrument(reg *obs.Registry) {
	s.o = retryObs{
		reg:       reg,
		retries:   reg.Counter("storage.retry.retries"),
		exhausted: reg.Counter("storage.retry.exhausted"),
	}
	if in, ok := s.inner.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
}

// backoff returns the jittered delay before attempt+1 (attempt is 1-based).
func (s *RetryStore[V]) backoff(attempt int) time.Duration {
	d := s.pol.BaseDelay
	for i := 1; i < attempt && d < s.pol.MaxDelay; i++ {
		d *= 2
	}
	if d > s.pol.MaxDelay {
		d = s.pol.MaxDelay
	}
	if s.pol.Jitter > 0 {
		s.mu.Lock()
		u := randx.Float64(s.rng)
		s.mu.Unlock()
		d = time.Duration(float64(d) * (1 + s.pol.Jitter*(2*u-1)))
	}
	return d
}

// do runs f under the retry budget.
func (s *RetryStore[V]) do(op, key string, f func() error) error {
	var err error
	for attempt := 1; ; attempt++ {
		err = f()
		if err == nil {
			return nil
		}
		if !IsRetryable(err) || attempt >= s.pol.MaxAttempts {
			break
		}
		s.o.retries.Inc()
		if s.o.reg.Tracing() {
			s.o.reg.Emit(obs.Event{
				Type:      obs.EvRetry,
				Component: "storage.retry",
				Labels:    map[string]string{"op": op, "key": key, "error": err.Error()},
				Values:    map[string]int64{"attempt": int64(attempt)},
			})
		}
		s.pol.Sleep(s.backoff(attempt))
	}
	if IsRetryable(err) {
		s.o.exhausted.Inc()
		return fmt.Errorf("storage: retry budget exhausted after %d attempts (%s %q): %w",
			s.pol.MaxAttempts, op, key, err)
	}
	return err
}

// Put implements Store.
func (s *RetryStore[V]) Put(key string, smp *core.Sample[V]) error {
	return s.do("put", key, func() error { return s.inner.Put(key, smp) })
}

// Order implements Store.
func (s *RetryStore[V]) Order(smp *core.Sample[V]) { s.inner.Order(smp) }

// Get implements Store.
func (s *RetryStore[V]) Get(key string) (*core.Sample[V], error) {
	var out *core.Sample[V]
	err := s.do("get", key, func() error {
		var err error
		out, err = s.inner.Get(key)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Delete implements Store.
func (s *RetryStore[V]) Delete(key string) error {
	return s.do("delete", key, func() error { return s.inner.Delete(key) })
}

// Keys implements Store.
func (s *RetryStore[V]) Keys(prefix string) ([]string, error) {
	var out []string
	err := s.do("keys", prefix, func() error {
		var err error
		out, err = s.inner.Keys(prefix)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PutBlob implements BlobStore by forwarding under the retry budget;
// ErrBlobsUnsupported when the inner store has no blob support.
func (s *RetryStore[V]) PutBlob(name string, data []byte) error {
	bs, ok := s.inner.(BlobStore)
	if !ok {
		return ErrBlobsUnsupported
	}
	return s.do("put_blob", name, func() error { return bs.PutBlob(name, data) })
}

// GetBlob implements BlobStore by forwarding under the retry budget;
// ErrBlobsUnsupported when the inner store has no blob support.
func (s *RetryStore[V]) GetBlob(name string) ([]byte, error) {
	bs, ok := s.inner.(BlobStore)
	if !ok {
		return nil, ErrBlobsUnsupported
	}
	var out []byte
	err := s.do("get_blob", name, func() error {
		var err error
		out, err = bs.GetBlob(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteBlob implements BlobStore by forwarding under the retry budget;
// ErrBlobsUnsupported when the inner store has no blob support.
func (s *RetryStore[V]) DeleteBlob(name string) error {
	bs, ok := s.inner.(BlobStore)
	if !ok {
		return ErrBlobsUnsupported
	}
	return s.do("delete_blob", name, func() error { return bs.DeleteBlob(name) })
}

var (
	_ Store[int64] = (*RetryStore[int64])(nil)
	_ BlobStore    = (*RetryStore[int64])(nil)
)
