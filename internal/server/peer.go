package server

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The hedge delay is a peer's observed latency quantile clamped to
// [hedgeMin, hedgeMax]; HedgeInitial stands in until the window has enough
// observations.
const (
	hedgeQuantile = 0.95
	hedgeMin      = 5 * time.Millisecond
	hedgeMax      = time.Second
)

// latWindow is a small ring of recent request latencies used to derive the
// hedging threshold: a duplicate request is worth firing once the primary
// has been out longer than the peer's p95. Safe for concurrent use.
type latWindow struct {
	mu  sync.Mutex
	buf []int64 // nanoseconds
	idx int
	n   int
}

func newLatWindow() *latWindow { return &latWindow{buf: make([]int64, 64)} }

func (l *latWindow) observe(ns int64) {
	l.mu.Lock()
	l.buf[l.idx] = ns
	l.idx = (l.idx + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-th latency quantile of the window; ok is false
// until at least 8 observations exist (too few to trust a tail estimate).
func (l *latWindow) quantile(q float64) (ns int64, ok bool) {
	l.mu.Lock()
	if l.n < 8 {
		l.mu.Unlock()
		return 0, false
	}
	s := make([]int64, l.n)
	copy(s, l.buf[:l.n])
	l.mu.Unlock()
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q * float64(len(s)-1))
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i], true
}

// peer is one cluster member as seen from this node: its shard id and base
// URL, two HTTP clients (fast-failing for scatter, retrying for replica
// ingest), a circuit breaker and a latency window. The self peer carries no
// clients — local work goes straight to the warehouse.
type peer struct {
	id   int
	addr string
	self bool

	// query fails fast (no automatic retries) so the coordinator's own
	// failover and hedging own the recovery policy; ingest keeps the
	// default retry policy because a replica write has exactly one valid
	// target and an idempotency key making re-sends safe.
	query  *Client
	ingest *Client

	br  *breaker
	lat *latWindow
}

func newPeer(id int, addr string, self bool, breakerOpen time.Duration, httpc *http.Client) *peer {
	p := &peer{
		id:   id,
		addr: addr,
		self: self,
		br:   newBreaker(breakerOpen),
		lat:  newLatWindow(),
	}
	if !self {
		p.query = NewClient(addr, httpc).SetRetryPolicy(NoRetry())
		p.ingest = NewClient(addr, httpc).SetRetryPolicy(RetryPolicy{
			MaxAttempts: 2, BaseBackoff: 25 * time.Millisecond, MaxBackoff: 250 * time.Millisecond,
		})
	}
	return p
}

// hedgeDelay derives when a duplicate of an outstanding request to this peer
// should fire: the peer's observed latency quantile, or the configured
// initial delay before enough observations exist, clamped to
// [hedgeMin, hedgeMax].
func (p *peer) hedgeDelay(initial time.Duration) time.Duration {
	d := initial
	if ns, ok := p.lat.quantile(hedgeQuantile); ok {
		d = time.Duration(ns)
	}
	return min(max(d, hedgeMin), hedgeMax)
}

// errBreakerOpen is call's answer for a peer its breaker refused: the request
// was never sent.
var errBreakerOpen = errors.New("circuit breaker open")

// callState names a guarded call's outcome in a per-shard or per-replica
// status: "ok", "breaker_open" for a refused call, "error" otherwise.
func callState(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errBreakerOpen):
		return "breaker_open"
	}
	return "error"
}

// peerHealthy classifies a failed request for the circuit breaker: clean 4xx
// responses prove the peer is up and answering (the request was just
// unserveable there), so only transport errors, timeouts and 5xx/429 count
// against it.
func peerHealthy(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode < http.StatusInternalServerError && ae.StatusCode != http.StatusTooManyRequests
	}
	return false
}

// call is the guarded peer request (DESIGN.md §13), the only code outside
// breaker.go that touches a breaker. A peer behind an open breaker is refused
// with errBreakerOpen: no request sent, none of ctx's deadline spent.
// Otherwise fn runs and its outcome settles the breaker; a success's latency
// feeds the peer's hedging window. A request whose ctx was cancelled under it
// (a lost hedge race) proves nothing about the peer: it is not recorded, and
// a half-open probe slot it held is released. The self peer has no network to
// guard: fn just runs.
func (c *clusterState) call(ctx context.Context, p *peer, fn func() error) error {
	if p.self {
		return fn()
	}
	ok, probe := p.br.Allow()
	if !ok {
		c.o.breakerSkips.Inc()
		return errBreakerOpen
	}
	start := time.Now()
	err := fn()
	switch {
	case err == nil:
		p.br.Record(true)
		ns := time.Since(start).Nanoseconds()
		p.lat.observe(ns)
		c.o.peerLatency.Observe(ns)
	case ctx.Err() == context.Canceled:
		if probe {
			p.br.CancelProbe()
		}
	default:
		p.br.Record(peerHealthy(err))
	}
	return err
}
