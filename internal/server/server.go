// Package server exposes a sample warehouse over HTTP/JSON — the serving
// layer that turns the library's one-shot query path into a daemon
// (cmd/swd) answering approximate queries under load.
//
// The design goal is bounded latency under unbounded offered load, in the
// BlinkDB tradition of bounded-error/bounded-time answers:
//
//   - Every request runs under a deadline (client-chosen via ?timeout=,
//     clamped by the server) propagated through context into the warehouse
//     loader, so work stops when nobody is waiting for the answer.
//   - Admission control per endpoint class (read / ingest / query) bounds
//     both concurrency and queue depth; excess load is shed immediately
//     with 429 + Retry-After instead of stacking goroutines until
//     everything times out.
//   - Estimate and sample answers carry their merge coverage, so a
//     degraded (partial) answer is explicit, never silent.
//   - Handlers are panic-isolated; a bug in one request burns that request
//     (500), not the process.
//
// Metrics (server.requests, server.shed, server.latency_ns, per-route
// histograms) and shed/drain trace events thread through internal/obs.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// Config tunes the server's admission control and deadlines. The zero value
// selects production-reasonable defaults.
type Config struct {
	// DefaultTimeout is the per-request deadline applied when the client
	// does not pass ?timeout=. Default 2s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines. Default 30s.
	MaxTimeout time.Duration

	// ReadLimit bounds concurrently executing introspection requests
	// (dataset/partition listing). Default 64.
	ReadLimit int
	// IngestLimit bounds concurrently executing roll-in/roll-out requests.
	// Ingest streams through a sampler and holds the warehouse write path;
	// a small bound protects query tail latency. Default 4.
	IngestLimit int
	// QueryLimit bounds concurrently executing merge/estimate requests —
	// the CPU-heavy class. Default GOMAXPROCS.
	QueryLimit int
	// QueueDepth bounds how many requests may wait per class before new
	// arrivals are shed with 429. Default 2× the class limit.
	QueueDepth int
	// QueueWait bounds how long a request may wait for a slot before being
	// shed. Default 100ms.
	QueueWait time.Duration

	// MaxBodyBytes caps ingest request bodies. Default 256 MiB.
	MaxBodyBytes int64
	// RetryAfter is the Retry-After hint attached to 429 responses.
	// Default 1s (rounded up to whole seconds on the wire).
	RetryAfter time.Duration

	// SlowLogThreshold is the latency (admission wait included) above which
	// a request's span tree is recorded in the slow-query log and a
	// slow_query event is emitted. Default 500ms; negative disables the
	// slow-query log.
	SlowLogThreshold time.Duration
	// SlowLogSize bounds the slow-query log ring (oldest entries are
	// overwritten). Default 64.
	SlowLogSize int

	// Journal, when non-nil, is the write-ahead ingest journal: every
	// acknowledged ingest batch is sealed in it (fsynced per its policy)
	// before the response leaves, and the handler commits the entry once
	// RollIn lands. Nil serves without crash durability (in-memory mode).
	Journal *wal.Log[int64]
	// IdempotencyCapacity bounds the remembered Idempotency-Key responses
	// (least-recently-used eviction). Default 4096.
	IdempotencyCapacity int
	// IdempotencyTTL bounds how long a remembered Idempotency-Key response
	// stays answerable; older entries read as absent and are reaped lazily.
	// Default 1h; negative disables age-based expiry.
	IdempotencyTTL time.Duration

	// Registry routes server metrics and events; nil leaves the server
	// uninstrumented (all obs calls are nil-safe no-ops).
	Registry *obs.Registry
}

// normalized fills config defaults.
func (c Config) normalized() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.ReadLimit <= 0 {
		c.ReadLimit = 64
	}
	if c.IngestLimit <= 0 {
		c.IngestLimit = 4
	}
	if c.QueryLimit <= 0 {
		c.QueryLimit = runtime.GOMAXPROCS(0)
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.IdempotencyCapacity <= 0 {
		c.IdempotencyCapacity = 4096
	}
	if c.IdempotencyTTL == 0 {
		c.IdempotencyTTL = time.Hour
	}
	if c.SlowLogThreshold == 0 {
		c.SlowLogThreshold = 500 * time.Millisecond
	}
	if c.SlowLogSize <= 0 {
		c.SlowLogSize = 64
	}
	return c
}

// queueDepth resolves the per-class queue depth for a class limit.
func (c Config) queueDepth(limit int) int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 2 * limit
}

// serverObs bundles the server's metric handles (nil-safe zero value).
//
// Metric names (see README.md §Observability):
//
//	server.requests              requests admitted to a handler (counter)
//	server.shed                  requests rejected by admission control (counter)
//	server.errors                5xx responses (counter)
//	server.panics                handler panics recovered (counter)
//	server.inflight              currently executing requests (gauge)
//	server.latency_ns            request latency, admission to response (histogram)
//	server.trace_requests        requests that opened a trace (counter)
//	server.trace_spans           spans recorded across all traces (counter)
//	server.route.<route>.requests   per-route admitted requests (counter)
//	server.route.<route>.latency_ns per-route latency (histogram)
type serverObs struct {
	reg        *obs.Registry
	requests   *obs.Counter
	shed       *obs.Counter
	errors     *obs.Counter
	panics     *obs.Counter
	inflight   *obs.Gauge
	latency    *obs.Histogram
	traceReqs  *obs.Counter
	traceSpans *obs.Counter
}

func newServerObs(reg *obs.Registry) serverObs {
	return serverObs{
		reg:        reg,
		requests:   reg.Counter("server.requests"),
		shed:       reg.Counter("server.shed"),
		errors:     reg.Counter("server.errors"),
		panics:     reg.Counter("server.panics"),
		inflight:   reg.Gauge("server.inflight"),
		latency:    reg.Histogram("server.latency_ns"),
		traceReqs:  reg.Counter("server.trace_requests"),
		traceSpans: reg.Counter("server.trace_spans"),
	}
}

// Server serves one int64-valued warehouse over HTTP/JSON. Construct with
// New, mount via Handler, and call BeginDrain when shutting down (cmd/swd
// pairs it with http.Server.Shutdown so accepted requests complete).
type Server struct {
	wh      *warehouse.Warehouse[int64]
	cfg     Config
	mux     *http.ServeMux
	o       serverObs
	journal *wal.Log[int64]
	idem    *idemRegistry
	slow    *slowLog

	read   *limiter
	ingest *limiter
	query  *limiter

	// cluster is non-nil in cluster mode (EnableCluster): this node then
	// coordinates scatter-gather queries and replicated ingest.
	cluster *clusterState

	ready    atomic.Bool
	draining atomic.Bool
	served   atomic.Int64
}

// New builds a server over wh. The warehouse should already be instrumented
// and query-configured by the caller; cfg.Registry instruments the serving
// layer itself.
func New(wh *warehouse.Warehouse[int64], cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		wh:      wh,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		o:       newServerObs(cfg.Registry),
		journal: cfg.Journal,
		idem:    newIdemRegistry(cfg.IdempotencyCapacity, cfg.IdempotencyTTL, cfg.Registry.Counter("server.idem_evictions")),
		slow:    newSlowLog(cfg.SlowLogThreshold, cfg.SlowLogSize, cfg.Registry),
		read:    newLimiter(cfg.ReadLimit, cfg.queueDepth(cfg.ReadLimit), cfg.QueueWait),
		ingest:  newLimiter(cfg.IngestLimit, cfg.queueDepth(cfg.IngestLimit), cfg.QueueWait),
		query:   newLimiter(cfg.QueryLimit, cfg.queueDepth(cfg.QueryLimit), cfg.QueueWait),
	}
	s.ready.Store(true)
	s.routes()
	return s
}

// SeedIdempotency primes the Idempotency-Key registry from journal replay:
// each replayed batch that carried a key answers its client's retry with the
// rebuilt response instead of re-ingesting. Call before serving traffic.
func (s *Server) SeedIdempotency(replayed []warehouse.ReplayedIngest[int64]) {
	for _, re := range replayed {
		if re.Key == "" {
			continue
		}
		s.idem.put(idemScope(re.Dataset, re.Partition, re.Key), IngestResponse{
			Dataset:   re.Dataset,
			Partition: re.Partition,
			Read:      re.Values,
			Sample:    sampleMeta(re.Sample),
		})
	}
}

// routes mounts every endpoint. Health and metrics bypass admission control
// — they must answer precisely when the serving classes are saturated.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /clusterz", s.handleClusterz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePrometheus)
	s.mux.HandleFunc("GET /debug/slowlog", s.handleSlowLog)
	s.mux.Handle("GET /v1/datasets", s.wrap(s.read, "datasets.list", s.handleDatasetList))
	s.mux.Handle("POST /v1/datasets", s.wrap(s.ingest, "datasets.create", s.handleDatasetCreate))
	s.mux.Handle("GET /v1/datasets/{ds}", s.wrap(s.read, "datasets.get", s.handleDatasetGet))
	s.mux.Handle("GET /v1/datasets/{ds}/partitions/{part}", s.wrap(s.read, "partition.info", s.handlePartitionInfo))
	s.mux.Handle("PUT /v1/datasets/{ds}/partitions/{part}", s.wrap(s.ingest, "partition.ingest", s.handleIngest))
	s.mux.Handle("DELETE /v1/datasets/{ds}/partitions/{part}", s.wrap(s.ingest, "partition.rollout", s.handleRollOut))
	s.mux.Handle("GET /v1/datasets/{ds}/sample", s.wrap(s.query, "sample", s.handleSample))
	s.mux.Handle("GET /v1/datasets/{ds}/estimate", s.wrap(s.query, "estimate", s.handleEstimate))
	s.mux.Handle("GET /antientropy/digest", s.wrap(s.read, "antientropy.digest", s.handleAntiEntropyDigest))
	s.mux.Handle("GET /antientropy/partition", s.wrap(s.read, "antientropy.partition", s.handleAntiEntropyPartition))
	s.mux.Handle("POST /antientropy/nudge", s.wrap(s.read, "antientropy.nudge", s.handleAntiEntropyNudge))
}

// Handler returns the root handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// Served returns the number of requests that completed a handler.
func (s *Server) Served() int64 { return s.served.Load() }

// Inflight returns the number of currently executing admitted requests
// across all classes.
func (s *Server) Inflight() int {
	return s.read.inflight() + s.ingest.inflight() + s.query.inflight()
}

// SetReady flips the readiness gate. cmd/swd binds its listener before WAL
// replay and calls SetReady(true) once replay lands, so /readyz (and the
// admission-controlled routes, which answer 503 until then) tell peers and
// load balancers precisely when the node can serve. Liveness (/healthz) is
// unaffected.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// ReadyState reports the readiness gate (drain state not included; see
// handleReady for the wire semantics).
func (s *Server) ReadyState() bool { return s.ready.Load() }

// BeginDrain flips the server into draining state: /readyz starts failing
// (so load balancers and cluster peers de-pool the instance) while
// already-accepted requests keep executing. The caller then runs
// http.Server.Shutdown, which stops the listener and waits for in-flight
// requests — together, no request is dropped after accept.
func (s *Server) BeginDrain() {
	if s.draining.Swap(true) {
		return
	}
	if s.o.reg.Tracing() {
		s.o.reg.Emit(obs.Event{Type: obs.EvDrain, Component: "server",
			Labels: map[string]string{"stage": "begin"}})
	}
}

// FinishDrain records drain completion (after http.Server.Shutdown returns).
func (s *Server) FinishDrain() {
	if s.o.reg.Tracing() {
		s.o.reg.Emit(obs.Event{Type: obs.EvDrain, Component: "server",
			Labels: map[string]string{"stage": "done"},
			Values: map[string]int64{"served": s.served.Load()}})
	}
}

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handlerFunc is the inner handler signature: it returns an error to be
// mapped to an HTTP status, or nil if it already wrote the response.
type handlerFunc func(w http.ResponseWriter, r *http.Request) error

// wrap applies the middleware stack to a handler: panic isolation, request
// accounting, deadline derivation, trace creation, admission control,
// latency observation, slow-query recording and error mapping — in that
// order.
//
// Every wrapped request runs under a trace whose root span is the route
// name: a client-supplied X-Swd-Trace-Id is honored (when valid) and the
// effective ID is echoed on the response. The admission wait is the first
// child span; handlers hang the rest of the tree off the context. Requests
// slower than the configured threshold land in the slow-query log with
// their full span tree.
func (s *Server) wrap(lim *limiter, route string, fn handlerFunc) http.Handler {
	routeReqs := s.o.reg.Counter("server.route." + route + ".requests")
	routeLat := s.o.reg.Histogram("server.route." + route + ".latency_ns")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.o.panics.Inc()
				s.o.errors.Inc()
				if s.o.reg.Tracing() {
					s.o.reg.Emit(obs.Event{Type: obs.EvError, Component: "server",
						Labels: map[string]string{"op": route, "error": fmt.Sprint(p)}})
				}
				// The header may already be out; WriteHeader then is a no-op.
				writeError(w, http.StatusInternalServerError, "internal error")
			}
		}()

		if !s.ready.Load() {
			// Booting (WAL replay in flight): the listener is up so probes
			// and peers get a crisp 503 instead of connection refused, but
			// no serving-class work runs until the state is consistent.
			secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeError(w, http.StatusServiceUnavailable, "not ready: booting")
			return
		}

		ctx, cancel, err := s.requestContext(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		defer cancel()

		tr := obs.StartTrace(r.Header.Get(TraceHeader), route)
		w.Header().Set(TraceHeader, tr.ID())
		s.o.traceReqs.Inc()
		ctx = obs.ContextWithSpan(ctx, tr.Root())
		r = r.WithContext(ctx)

		adm := tr.Root().Start("admission_wait")
		if err := lim.acquire(ctx); err != nil {
			adm.SetError(err)
			s.shedOrCancel(w, route, err)
			return
		}
		adm.End()
		defer lim.release()

		s.o.requests.Inc()
		routeReqs.Inc()
		s.o.inflight.Add(1)
		start := time.Now()
		err = fn(w, r)
		ns := time.Since(start).Nanoseconds()
		s.o.inflight.Add(-1)
		s.o.latency.Observe(ns)
		routeLat.Observe(ns)
		s.served.Add(1)
		elapsed := tr.Finish()
		s.o.traceSpans.Add(tr.Spans())
		s.slow.observe(route, tr, elapsed, s.o.reg)
		if err != nil {
			code, msg := errorStatus(err)
			if code >= 500 {
				s.o.errors.Inc()
			}
			writeError(w, code, msg)
		}
	})
}

// requestContext derives the request deadline: ?timeout= (clamped to
// MaxTimeout) or the server default, layered on the connection context so
// client disconnects cancel work too.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if raw := r.URL.Query().Get("timeout"); raw != "" {
		parsed, err := time.ParseDuration(raw)
		if err != nil || parsed <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive Go duration, e.g. 500ms)", raw)
		}
		d = parsed
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

// shedOrCancel writes the admission-failure response: 429 + Retry-After for
// sheds, 504 when the request's own deadline fired while queued.
func (s *Server) shedOrCancel(w http.ResponseWriter, route string, err error) {
	if errors.Is(err, errShed) {
		s.o.shed.Inc()
		s.o.reg.Counter("server.route." + route + ".shed").Inc()
		if s.o.reg.Tracing() {
			s.o.reg.Emit(obs.Event{Type: obs.EvShed, Component: "server",
				Labels: map[string]string{"route": route},
				Values: map[string]int64{"inflight": int64(s.Inflight())}})
		}
		secs := int64((s.cfg.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeError(w, http.StatusTooManyRequests, "saturated: admission queue full")
		return
	}
	writeError(w, http.StatusGatewayTimeout, "deadline expired while queued")
}

// errorStatus maps a handler error to an HTTP status and message.
func errorStatus(err error) (int, string) {
	var he *httpError
	switch {
	case errors.As(err, &he):
		return he.code, he.msg
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline exceeded"
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log, not the wire.
		return statusClientClosedRequest, "request canceled"
	case storage.IsNotFound(err):
		return http.StatusNotFound, err.Error()
	}
	if code := warehouseStatus(err); code != 0 {
		return code, err.Error()
	}
	return http.StatusInternalServerError, err.Error()
}

// warehouseStatus is the one place a warehouse sentinel error becomes an
// HTTP status (0: not a sentinel). Handlers return warehouse errors as they
// are; nothing inspects message text.
func warehouseStatus(err error) int {
	switch {
	case errors.Is(err, warehouse.ErrUnknownDataset),
		errors.Is(err, warehouse.ErrNoPartitions),
		errors.Is(err, warehouse.ErrNoReadablePartitions):
		return http.StatusNotFound
	case errors.Is(err, warehouse.ErrDuplicatePartition):
		return http.StatusBadRequest
	case errors.Is(err, warehouse.ErrDatasetExists):
		return http.StatusConflict
	}
	return 0
}

// invalidUnlessSentinel classifies the error of a warehouse call whose other
// failures all mean the request itself was malformed (a bad name, a missing
// expected size): sentinels keep their own status, the rest answer 400.
func invalidUnlessSentinel(err error) error {
	if warehouseStatus(err) != 0 {
		return err
	}
	return badRequest("%v", err)
}

// statusClientClosedRequest is nginx's conventional code for a client that
// disconnected before the response.
const statusClientClosedRequest = 499

// httpError carries an explicit status from a handler.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// badRequest and notFound build explicit handler errors.
func badRequest(format string, args ...any) error {
	return &httpError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func notFound(format string, args ...any) error {
	return &httpError{code: http.StatusNotFound, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON writes v as the JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // a failed write means the client is gone
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
