package server

import (
	"container/list"
	"sync"
	"time"

	"samplewh/internal/obs"
)

// idemRegistry remembers the responses of recently acknowledged ingest
// batches by client-supplied Idempotency-Key, so a client retrying after an
// ambiguous failure (timeout, dropped connection, server crash) gets the
// original answer back instead of double-ingesting. The registry is bounded
// two ways — idempotency is a retry-window guarantee, not an eternal ledger:
//
//   - Capacity: over it the least-recently-used entry is evicted (a get
//     refreshes recency, so live retry keys survive churn that would have
//     rotated them out under the old FIFO policy).
//   - Age: entries older than the TTL answer as absent and are reaped
//     lazily on access and during eviction, so a registry seeded from a
//     large journal replay shrinks back to its working set.
//
// Evictions (capacity or age) count in server.idem_evictions.
//
// Keys are scoped per dataset/partition, so clients may reuse a key across
// partitions without collisions. The registry is seeded from journal replay
// at startup (Server.SeedIdempotency), closing the loop across crashes: a
// batch acknowledged just before a kill answers its retry as a replay after
// the restart.
type idemRegistry struct {
	mu        sync.Mutex
	cap       int
	ttl       time.Duration
	m         map[string]*list.Element
	order     *list.List // front = most recently used
	evictions *obs.Counter
}

// idemEntry is one remembered acknowledgment.
type idemEntry struct {
	scope string
	resp  IngestResponse
	added time.Time
}

func newIdemRegistry(capacity int, ttl time.Duration, evictions *obs.Counter) *idemRegistry {
	return &idemRegistry{
		cap:       capacity,
		ttl:       ttl,
		m:         make(map[string]*list.Element, capacity),
		order:     list.New(),
		evictions: evictions,
	}
}

// idemScope builds the registry key for one batch.
func idemScope(ds, part, key string) string { return ds + "\x00" + part + "\x00" + key }

// expired reports whether an entry is past the TTL.
func (r *idemRegistry) expired(e *idemEntry, now time.Time) bool {
	return now.Sub(e.added) > r.ttl
}

func (r *idemRegistry) get(scope string) (IngestResponse, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.m[scope]
	if !ok {
		return IngestResponse{}, false
	}
	e := el.Value.(*idemEntry)
	if r.expired(e, time.Now()) {
		r.order.Remove(el)
		delete(r.m, scope)
		r.evictions.Inc()
		return IngestResponse{}, false
	}
	r.order.MoveToFront(el)
	return e.resp, true
}

func (r *idemRegistry) put(scope string, resp IngestResponse) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if el, ok := r.m[scope]; ok {
		e := el.Value.(*idemEntry)
		e.resp, e.added = resp, now
		r.order.MoveToFront(el)
		return
	}
	r.m[scope] = r.order.PushFront(&idemEntry{scope: scope, resp: resp, added: now})
	for len(r.m) > r.cap {
		back := r.order.Back()
		if back == nil {
			break
		}
		r.order.Remove(back)
		delete(r.m, back.Value.(*idemEntry).scope)
		r.evictions.Inc()
	}
}

// len reports the live entry count (expired entries included until reaped).
func (r *idemRegistry) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.m)
}
