package server

import (
	"sync"
	"time"

	"samplewh/internal/obs"
)

// TraceHeader is the HTTP header carrying the request trace ID. The server
// honors a client-supplied ID (validated by obs.ValidTraceID, otherwise a
// fresh one is minted) and always echoes the effective ID on the response,
// so a caller can correlate its request with the server's slow-query log
// and explain output. server.Client forwards the ID from a traced context
// automatically, which is what lets a future scatter-gather tier stitch
// one trace across hops.
const TraceHeader = "X-Swd-Trace-Id"

// SlowQuery is one slow-query log entry: a request whose total latency
// (admission wait included) exceeded the server's threshold, retained with
// its full span tree.
type SlowQuery struct {
	TraceID    string           `json:"trace_id"`
	Route      string           `json:"route"`
	Time       time.Time        `json:"time"`
	DurationNS int64            `json:"duration_ns"`
	Trace      obs.SpanSnapshot `json:"trace"`
}

// SlowLogResponse is the GET /debug/slowlog body. Entries are newest first.
type SlowLogResponse struct {
	Enabled     bool        `json:"enabled"`
	ThresholdNS int64       `json:"threshold_ns"`
	Size        int         `json:"size"`
	Total       int64       `json:"total"`
	Entries     []SlowQuery `json:"entries"`
}

// slowLog is a fixed-capacity ring of the most recent slow queries. Like the
// rest of the stack it is nil-safe: a nil *slowLog (slow-query logging
// disabled) makes every method a no-op, so the request path records
// unconditionally.
//
// Metric names (see README.md §Observability):
//
//	slowlog.entries   requests recorded in the slow-query log (counter)
//	slowlog.evicted   entries overwritten by newer ones (counter)
type slowLog struct {
	threshold time.Duration

	mu    sync.Mutex
	buf   []SlowQuery
	next  int
	total int64

	entriesC *obs.Counter
	evictedC *obs.Counter
}

// newSlowLog builds the slowLogSize ring; a negative threshold disables the
// log entirely (returns nil). threshold arrives already defaulted by
// Config.normalized.
func newSlowLog(threshold time.Duration, reg *obs.Registry) *slowLog {
	if threshold < 0 {
		return nil
	}
	return &slowLog{
		threshold: threshold,
		buf:       make([]SlowQuery, 0, slowLogSize),
		entriesC:  reg.Counter("slowlog.entries"),
		evictedC:  reg.Counter("slowlog.evicted"),
	}
}

// observe records the finished trace if it crossed the threshold. Called on
// every request; the fast path (under threshold) is one comparison.
func (l *slowLog) observe(route string, tr *obs.Trace, elapsed time.Duration) {
	if l == nil || elapsed < l.threshold {
		return
	}
	e := SlowQuery{
		TraceID:    tr.ID(),
		Route:      route,
		DurationNS: elapsed.Nanoseconds(),
		Trace:      tr.Snapshot(),
	}
	l.mu.Lock()
	// Stamped under the lock, so ring order and time order agree when
	// requests finish concurrently (the snapshot promises newest first).
	e.Time = time.Now()
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
	} else {
		l.buf[l.next] = e
		l.next = (l.next + 1) % cap(l.buf)
		l.evictedC.Inc()
	}
	l.total++
	l.mu.Unlock()
	l.entriesC.Inc()
}

// snapshot renders the log for /debug/slowlog, newest entry first.
func (l *slowLog) snapshot() SlowLogResponse {
	if l == nil {
		return SlowLogResponse{Entries: []SlowQuery{}}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := SlowLogResponse{
		Enabled:     true,
		ThresholdNS: l.threshold.Nanoseconds(),
		Size:        cap(l.buf),
		Total:       l.total,
		Entries:     make([]SlowQuery, 0, len(l.buf)),
	}
	// Oldest-first ring order is buf[next:] then buf[:next]; emit reversed.
	for i := l.next - 1; i >= 0; i-- {
		out.Entries = append(out.Entries, l.buf[i])
	}
	for i := len(l.buf) - 1; i >= l.next; i-- {
		out.Entries = append(out.Entries, l.buf[i])
	}
	return out
}
