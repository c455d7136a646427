package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/obs"
	"samplewh/internal/plan"
	"samplewh/internal/sketch"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// nowNS is the monotonic-enough clock for ElapsedNS fields.
func nowNS() int64 { return time.Now().UnixNano() }

// HealthResponse is the GET /healthz body.
type HealthResponse struct {
	Status   string `json:"status"` // "ok", "booting" or "draining"
	Ready    bool   `json:"ready"`
	Datasets int    `json:"datasets"`
	Inflight int    `json:"inflight"`
}

// ReadyResponse is the GET /readyz body.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reason explains a false Ready: "booting" (WAL replay in flight) or
	// "draining".
	Reason string `json:"reason,omitempty"`
}

// DatasetInfo describes one data set: GET /v1/datasets and
// GET /v1/datasets/{ds}.
type DatasetInfo struct {
	Name           string   `json:"name"`
	Algorithm      string   `json:"algorithm"`
	NF             int64    `json:"nf"`
	FootprintBytes int64    `json:"footprint_bytes"`
	ExceedProb     float64  `json:"exceed_prob,omitempty"`
	SBRate         float64  `json:"sb_rate,omitempty"`
	Partitions     []string `json:"partitions"`
}

// CreateDatasetRequest is the POST /v1/datasets body.
type CreateDatasetRequest struct {
	Name      string  `json:"name"`
	Algorithm string  `json:"algorithm,omitempty"` // HR (default), HB or SB
	NF        int64   `json:"nf,omitempty"`        // default 8192
	P         float64 `json:"p,omitempty"`         // HB exceedance probability
	SBRate    float64 `json:"sb_rate,omitempty"`   // SB fixed rate
}

// PartitionInfo describes one stored partition sample.
type PartitionInfo struct {
	ID         string `json:"id"`
	Kind       string `json:"kind"`
	SampleSize int64  `json:"sample_size"`
	ParentSize int64  `json:"parent_size"`
	Footprint  int64  `json:"footprint"`
}

// IngestResponse is the PUT partition body: how much was read and what
// sample it condensed to. In cluster mode the coordinator adds the
// per-replica outcomes; Degraded marks a write acknowledged by a quorum but
// not by every replica.
type IngestResponse struct {
	Dataset   string          `json:"dataset"`
	Partition string          `json:"partition"`
	Read      int64           `json:"read"`
	Sample    SampleMeta      `json:"sample"`
	Replicas  []ReplicaStatus `json:"replicas,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
}

// RollOutResponse is the DELETE partition body. In cluster mode the
// coordinator adds the per-replica outcomes; Degraded marks a roll-out some
// replica did not apply (breaker-open or errored) — that replica still holds
// its copy. With repair enabled the coordinator journals a tombstone hint
// that deletes it once the replica recovers; without repair callers should
// retry until every replica reports ok or not_found.
type RollOutResponse struct {
	Dataset   string          `json:"dataset"`
	Partition string          `json:"partition"`
	Status    string          `json:"status"` // "rolled out"
	Replicas  []ReplicaStatus `json:"replicas,omitempty"`
	Degraded  bool            `json:"degraded,omitempty"`
}

// SampleMeta summarizes a (merged) sample without its values.
type SampleMeta struct {
	Kind       string  `json:"kind"`
	Size       int64   `json:"size"`
	ParentSize int64   `json:"parent_size"`
	Fraction   float64 `json:"fraction"`
	Q          float64 `json:"q,omitempty"`
	Footprint  int64   `json:"footprint"`
}

func sampleMeta(s *core.Sample[int64]) SampleMeta {
	return SampleMeta{
		Kind:       s.Kind.String(),
		Size:       s.Size(),
		ParentSize: s.ParentSize,
		Fraction:   s.Fraction(),
		Q:          s.Q,
		Footprint:  s.Footprint(),
	}
}

// SkippedPartition is one partition a degraded merge left out.
type SkippedPartition struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// Coverage reports which requested partitions a merged answer actually
// covers. Partial answers are explicit: clients that cannot accept a
// degraded answer retry with ?partial=0 or inspect Skipped.
type Coverage struct {
	Requested []string           `json:"requested"`
	Merged    []string           `json:"merged"`
	Skipped   []SkippedPartition `json:"skipped,omitempty"`
	// Pruned lists partitions a bounded query's planner never loaded: the
	// error or time bound was met without them. Unlike Skipped they do not
	// make the answer degraded — it is exactly as partial as the caller's
	// ?maxerr=/?maxtime= allowed.
	Pruned []string `json:"pruned,omitempty"`
	// SketchPruned lists partitions whose sketch sidecar proved no value in
	// the query's range, so they were never loaded. Unlike Pruned their
	// contribution is known exactly (zero matches over a known population):
	// the answer is byte-identical to one computed without pruning.
	SketchPruned []string `json:"sketch_pruned,omitempty"`
	Partial      bool     `json:"partial"`
}

func coverage(cov warehouse.MergeCoverage) Coverage {
	out := Coverage{Requested: cov.Requested, Merged: cov.Merged,
		Pruned: cov.Pruned, SketchPruned: cov.SketchPruned, Partial: cov.Partial()}
	for _, sk := range cov.Skipped {
		out.Skipped = append(out.Skipped, SkippedPartition{ID: sk.ID, Reason: sk.Reason})
	}
	return out
}

// PlanInfo surfaces a bounded query's chosen plan and early-stop decision
// (?maxerr= / ?maxtime=; see DESIGN.md §14).
type PlanInfo struct {
	// MaxErr and MaxTimeNS echo the request's bounds.
	MaxErr    float64 `json:"max_err,omitempty"`
	MaxTimeNS int64   `json:"max_time_ns,omitempty"`
	// Partitions is the plan length; PredictedStop is the planner's up-front
	// guess at how many partitions the error bound needs (0 = no prediction).
	Partitions    int `json:"partitions"`
	PredictedStop int `json:"predicted_stop,omitempty"`
	// Loaded and Pruned count partitions fetched versus never touched; a
	// bounded query's whole point is Loaded < Partitions.
	Loaded int `json:"loaded"`
	Pruned int `json:"pruned"`
	// StopReason is "maxerr" (bound met with partitions to spare), "maxtime"
	// (budget exhausted) or "exhausted" (the full plan ran).
	StopReason string `json:"stop_reason"`
	// AchievedHalfWidth is the answer's fraction-scale confidence half-width
	// relative to the full requested population (-1 when not computable).
	AchievedHalfWidth float64 `json:"achieved_half_width"`
	CoveredPopulation int64   `json:"covered_population"`
	TotalPopulation   int64   `json:"total_population"`
	// SketchPruned counts partitions dropped from the plan because their
	// sketch sidecar proved zero range overlap; ProvenZeroPopulation is their
	// summed population — counted in TotalPopulation, contributing exactly
	// zero matches.
	SketchPruned         int   `json:"sketch_pruned,omitempty"`
	ProvenZeroPopulation int64 `json:"proven_zero_population,omitempty"`
}

// planInfo converts a warehouse plan execution to its wire form (nil for an
// unbounded query, which has none).
func planInfo(b plan.Bounds, exec *warehouse.PlanExecution, sketchPruned int) *PlanInfo {
	if exec == nil {
		return nil
	}
	return &PlanInfo{
		MaxErr:               b.MaxErr,
		MaxTimeNS:            int64(b.MaxTime),
		Partitions:           len(exec.Plan.Steps),
		PredictedStop:        exec.Plan.PredictedStop,
		Loaded:               exec.Loaded,
		Pruned:               len(exec.Plan.Steps) - exec.Loaded,
		StopReason:           exec.StopReason,
		AchievedHalfWidth:    exec.AchievedHalfWidth,
		CoveredPopulation:    exec.CoveredPop,
		TotalPopulation:      exec.TotalPop,
		SketchPruned:         sketchPruned,
		ProvenZeroPopulation: exec.ProvenZeroPop,
	}
}

// ValueCount is one histogram entry of a returned sample.
type ValueCount struct {
	Value int64 `json:"value"`
	Count int64 `json:"count"`
}

// SampleResponse is the GET sample body: the merged sample with coverage.
type SampleResponse struct {
	Dataset  string       `json:"dataset"`
	Sample   SampleMeta   `json:"sample"`
	Coverage Coverage     `json:"coverage"`
	Values   []ValueCount `json:"values,omitempty"`
	// Truncated is set when ?limit= cut the value list short.
	Truncated bool `json:"truncated,omitempty"`
	// Degraded mirrors Coverage.Partial: the answer stands on fewer
	// partitions than requested. Shards carries the per-shard outcomes when
	// a cluster coordinator assembled the answer.
	Degraded bool          `json:"degraded,omitempty"`
	Shards   []ShardStatus `json:"shards,omitempty"`
	// Plan is set on bounded queries (?maxerr=/?maxtime=): the chosen plan
	// and the early-stop decision.
	Plan *PlanInfo `json:"plan,omitempty"`
	// Sketch is the merged sketch sidecar of the covered partitions,
	// populated on ?sketch=1 (the cluster coordinator uses it to union
	// KMV/heavy-hitter state across shards without shipping samples twice).
	Sketch *sketch.Summary `json:"sketch,omitempty"`
	// TraceID and Trace are populated by ?explain=1: the request's span tree
	// as of response assembly (the query EXPLAIN ANALYZE).
	TraceID string            `json:"trace_id,omitempty"`
	Trace   *obs.SpanSnapshot `json:"trace,omitempty"`
}

// DistinctResult carries the distinct-count estimators. The sample-based
// trio (InSample, Chao1, GEE) extrapolates from the merged sample; KMV is the
// sketch-union answer, exact until the union saturates its K smallest-hash
// slots and a small-relative-error estimate after. Method names the
// authoritative estimator: "kmv" when every covered partition (and, in
// cluster mode, every shard) contributed a sidecar that observed every row
// (stream-built, or built from an exhaustive sample), "sample" otherwise. The
// sample-based fallback is biased low on skewed multi-partition data — the
// merged sample subsamples the union, losing rare values — so treat GEE as a
// lower-confidence answer, not an upper bound.
type DistinctResult struct {
	InSample int64   `json:"in_sample"`
	Chao1    float64 `json:"chao1"`
	GEE      float64 `json:"gee"`
	KMV      float64 `json:"kmv,omitempty"`
	Method   string  `json:"method,omitempty"`
}

// EstimateResponse is the GET estimate body. Exactly one of Estimate,
// Quantile, Distinct, TopK or Groups is populated, per the query kind; every
// response carries the sample metadata and merge coverage.
type EstimateResponse struct {
	Dataset    string                      `json:"dataset"`
	Query      string                      `json:"query"`
	Confidence float64                     `json:"confidence"`
	Estimate   *estimate.Estimate          `json:"estimate,omitempty"`
	Quantile   *int64                      `json:"quantile,omitempty"`
	Distinct   *DistinctResult             `json:"distinct,omitempty"`
	TopK       []estimate.FreqEntry[int64] `json:"topk,omitempty"`
	// TopKHeavy is the sketch-union answer to topk queries (space-saving
	// counts with per-entry error bounds), populated when every covered
	// partition contributed a sidecar that observed every row; TopK stays
	// the sample-scaled view.
	TopKHeavy []sketch.HeavyHit             `json:"topk_heavy,omitempty"`
	Groups    []estimate.GroupResult[int64] `json:"groups,omitempty"`
	Sample    SampleMeta                    `json:"sample"`
	Coverage  Coverage                      `json:"coverage"`
	// Degraded mirrors Coverage.Partial: the answer stands on fewer
	// partitions than requested (its intervals are honest but wider).
	// Shards carries the per-shard outcomes when a cluster coordinator
	// assembled the answer.
	Degraded bool          `json:"degraded,omitempty"`
	Shards   []ShardStatus `json:"shards,omitempty"`
	// Plan is set on bounded queries (?maxerr=/?maxtime=): the chosen plan
	// and the early-stop decision.
	Plan      *PlanInfo `json:"plan,omitempty"`
	ElapsedNS int64     `json:"elapsed_ns"`
	// TraceID and Trace are populated by ?explain=1: the request's span tree
	// as of response assembly (the query EXPLAIN ANALYZE). The top-level
	// child spans — admission_wait, load, merge, estimate — partition the
	// handler's elapsed time.
	TraceID string            `json:"trace_id,omitempty"`
	Trace   *obs.SpanSnapshot `json:"trace,omitempty"`
}

// explainTrace snapshots the request's trace for an explain response. The
// root span is still open (the response has not left yet); its duration
// reads "so far", which is exactly what EXPLAIN ANALYZE wants.
func explainTrace(r *http.Request) (string, *obs.SpanSnapshot) {
	tr := obs.SpanFromContext(r.Context()).Trace()
	if tr == nil {
		return "", nil
	}
	snap := tr.Snapshot()
	return tr.ID(), &snap
}

// handleHealth is GET /healthz: pure liveness. It answers 200 as long as the
// process serves HTTP at all — during WAL boot replay and during drain
// included — so orchestrators restart only truly wedged processes. Routing
// decisions belong to /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok", Ready: true, Datasets: len(s.wh.Datasets()), Inflight: s.Inflight()}
	switch {
	case !s.ReadyState():
		resp.Status, resp.Ready = "booting", false
	case s.Draining():
		resp.Status, resp.Ready = "draining", false
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady is GET /readyz: readiness. 503 while the node is booting (WAL
// replay in flight) or draining, 200 once it can serve. Load balancers
// de-pool on it, and cluster peers use it for breaker probes and /clusterz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ReadyState():
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "booting"})
	case s.Draining():
		writeJSON(w, http.StatusServiceUnavailable, ReadyResponse{Reason: "draining"})
	default:
		writeJSON(w, http.StatusOK, ReadyResponse{Ready: true})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.o.reg == nil {
		writeError(w, http.StatusNotFound, "server is not instrumented")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.o.reg.Snapshot().JSON())
}

// handlePrometheus is GET /metrics: every registry metric in the Prometheus
// text exposition format, full bucket exposition included, so a stock
// Prometheus server scrapes the daemon directly. /metricsz keeps serving the
// JSON snapshot for humans and swcli.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	if s.o.reg == nil {
		writeError(w, http.StatusNotFound, "server is not instrumented")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.o.reg.WritePrometheus(w)
}

// handleSlowLog is GET /debug/slowlog: the retained slow queries with their
// span trees, newest first.
func (s *Server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.slow.snapshot())
}

// datasetInfo assembles the DatasetInfo DTO for one data set.
func (s *Server) datasetInfo(name string) (DatasetInfo, error) {
	cfg, err := s.wh.Config(name)
	if err != nil {
		return DatasetInfo{}, notFound("unknown data set %q", name)
	}
	parts, err := s.wh.Partitions(name)
	if err != nil {
		return DatasetInfo{}, err
	}
	if parts == nil {
		parts = []string{}
	}
	return DatasetInfo{
		Name:           name,
		Algorithm:      cfg.Algorithm.String(),
		NF:             cfg.Core.NF(),
		FootprintBytes: cfg.Core.FootprintBytes,
		ExceedProb:     cfg.Core.ExceedProb,
		SBRate:         cfg.SBRate,
		Partitions:     parts,
	}, nil
}

func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) error {
	names := s.wh.Datasets()
	out := make([]DatasetInfo, 0, len(names))
	for _, n := range names {
		info, err := s.datasetInfo(n)
		if err != nil {
			// The data set vanished between list and describe (concurrent
			// admin op); skip rather than fail the listing.
			continue
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
	return nil
}

// DatasetConfig resolves a CreateDatasetRequest into the warehouse config,
// applying the API defaults (NF 8192, SB rate 0.01): the one reading of a
// data set's creation parameters, for POST /v1/datasets, a definition healed
// from a peer and `swcli create` alike.
func DatasetConfig(req CreateDatasetRequest) (warehouse.DatasetConfig, error) {
	nf := req.NF
	if nf == 0 {
		nf = 8192
	}
	cc := core.ConfigForNF(nf)
	if req.P != 0 {
		cc.ExceedProb = req.P
	}
	cfg := warehouse.DatasetConfig{Core: cc, SBRate: req.SBRate}
	switch strings.ToUpper(req.Algorithm) {
	case "", "HR":
		cfg.Algorithm = warehouse.AlgHR
	case "HB":
		cfg.Algorithm = warehouse.AlgHB
	case "SB":
		cfg.Algorithm = warehouse.AlgSB
		if cfg.SBRate == 0 {
			cfg.SBRate = 0.01
		}
	default:
		return cfg, badRequest("create: unknown algorithm %q (want HR, HB or SB)", req.Algorithm)
	}
	return cfg, nil
}

func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) error {
	var req CreateDatasetRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return badRequest("bad create body: %v", err)
	}
	if req.Name == "" {
		return badRequest("create: name required")
	}
	if req.NF == 0 {
		req.NF = 8192
	}
	cfg, err := DatasetConfig(req)
	if err != nil {
		return err
	}
	if err := s.wh.CreateDataset(req.Name, cfg); err != nil {
		return invalidUnlessSentinel(err)
	}
	info, err := s.datasetInfo(req.Name)
	if err != nil {
		return err
	}
	if s.cluster != nil && r.Header.Get(forwardedHeader) == "" {
		// Cluster mode: push the data set to the peers so replicas accept
		// forwarded ingest for it. Best-effort — a peer that is down now is
		// healed lazily on its first forwarded ingest.
		s.broadcastDatasetCreate(r.Context(), req)
	}
	writeJSON(w, http.StatusCreated, info)
	return nil
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) error {
	info, err := s.datasetInfo(r.PathValue("ds"))
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, info)
	return nil
}

func (s *Server) handlePartitionInfo(w http.ResponseWriter, r *http.Request) error {
	ds, part := r.PathValue("ds"), r.PathValue("part")
	smp, err := s.wh.PartitionSampleContext(r.Context(), ds, part)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, PartitionInfo{
		ID:         part,
		Kind:       smp.Kind.String(),
		SampleSize: smp.Size(),
		ParentSize: smp.ParentSize,
		Footprint:  smp.Footprint(),
	})
	return nil
}

// ingestChunk sizes the journal's values frames: big enough to amortize the
// framing, small enough to keep the handler's buffer bounded.
const ingestChunk = 4096

// A line of the ingest body may be up to maxIngestLine bytes, newline
// included; the scanner starts at scanBufStart and grows on demand, so a
// request of ordinary 21-byte lines does not pay for the longest one allowed.
const (
	maxIngestLine = 1 << 20
	scanBufStart  = 64 << 10
)

// valueSource hands an ingest batch over a chunk at a time: each call returns
// up to ingestChunk values, valid until the next call, and none at the end.
type valueSource func() ([]int64, error)

// scanValues is the one parser of the text ingest body — int64 values, one
// per line, blank lines skipped, bounded by the server's body cap. It honors
// the request deadline between chunks, so a slow client cannot pin an ingest
// slot forever. Nothing is allocated until the first chunk is asked for.
func (s *Server) scanValues(w http.ResponseWriter, r *http.Request) valueSource {
	what := "ingest " + r.PathValue("ds") + "/" + r.PathValue("part")
	var sc *bufio.Scanner
	var chunk []int64
	var n int64
	return func() ([]int64, error) {
		if err := r.Context().Err(); err != nil {
			return nil, err
		}
		if sc == nil {
			sc = bufio.NewScanner(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
			sc.Buffer(make([]byte, scanBufStart), maxIngestLine)
			chunk = make([]int64, 0, ingestChunk)
		}
		chunk = chunk[:0]
		for len(chunk) < ingestChunk && sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			v, err := strconv.ParseInt(line, 10, 64)
			if err != nil {
				return nil, badRequest("%s: value %d: %v", what, n+1, err)
			}
			chunk = append(chunk, v)
			n++
		}
		if err := sc.Err(); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("ingest body exceeds %d bytes", s.cfg.MaxBodyBytes)}
			}
			return nil, badRequest("%s: read: %v", what, err)
		}
		return chunk, nil
	}
}

// chunksOf is the valueSource over an already buffered batch.
func chunksOf(vals []int64) valueSource {
	return func() ([]int64, error) {
		chunk := vals[:min(len(vals), ingestChunk)]
		vals = vals[len(chunk):]
		return chunk, nil
	}
}

// parseExpected reads ?expected=N, the expected partition size (required for
// HB data sets); absent means 0.
func parseExpected(r *http.Request) (int64, error) {
	raw := r.URL.Query().Get("expected")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, badRequest("bad expected %q", raw)
	}
	return v, nil
}

// writeIngest answers an ingest: 201 for a batch that landed, 200 with
// Idempotency-Replayed for the original answer to a key seen before.
func writeIngest(w http.ResponseWriter, resp IngestResponse, replayed bool) {
	code := http.StatusCreated
	if replayed {
		w.Header().Set("Idempotency-Replayed", "true")
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// handleIngest is roll-in over HTTP: PUT a stream of int64 values (text, one
// per line) as one partition; ?expected=N passes the expected partition size
// (required for HB data sets). See ingestLocal for what happens to them.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	if s.coordinated(r) {
		return s.handleIngestCluster(w, r)
	}
	expected, err := parseExpected(r)
	if err != nil {
		return err
	}
	resp, replayed, err := s.ingestLocal(r.Context(), r.PathValue("ds"), r.PathValue("part"),
		expected, r.Header.Get("Idempotency-Key"), s.scanValues(w, r))
	if err != nil {
		return err
	}
	writeIngest(w, resp, replayed)
	return nil
}

// ingestLocal is the one local write (DESIGN.md §17): every batch this
// process stores — a single-node PUT, a coordinator's own replica leg, a leg
// forwarded from another coordinator — is sampled on the way in through the
// data set's HB/HR/SB sampler (the server never materializes the raw
// partition, only its bounded sample) and rolled in here.
//
// With a journal configured, the raw batch is also appended to the
// write-ahead journal and sealed — fsynced under the `always` policy — before
// the roll-in and so before any ack: an acknowledged batch survives a crash
// and is replayed into its partition on restart. A non-empty key (the
// client's Idempotency-Key) already acknowledged, in this process or
// recovered from the journal, answers the original response with replayed
// set instead of ingesting again.
//
// Stage spans: ingest_read covers the scan with one wal_append child per
// journaled chunk; wal_seal wraps the fsync ack barrier; finalize and rollin
// time the sampler drain and the durable roll-in. Untraced requests pay nil
// checks only.
func (s *Server) ingestLocal(ctx context.Context, ds, part string, expected int64, key string, source valueSource) (resp IngestResponse, replayed bool, err error) {
	if key != "" {
		if resp, ok := s.idem.get(idemScope(ds, part, key)); ok {
			return resp, true, nil
		}
	}
	// Partition-seeded, not the warehouse's shared RNG stream: replicas
	// sampling the same batch store byte-identical samples (DESIGN.md §16).
	smp, err := s.wh.NewPartitionSampler(ds, part, expected)
	if err != nil && s.cluster != nil && errors.Is(err, warehouse.ErrUnknownDataset) &&
		s.healDatasetFromPeers(ctx, ds) == nil {
		// This replica missed the create broadcast and a peer has just
		// supplied the definition — before any of the body is read.
		smp, err = s.wh.NewPartitionSampler(ds, part, expected)
	}
	if err != nil {
		return resp, false, invalidUnlessSentinel(err)
	}
	var entry *wal.Entry[int64]
	if s.journal != nil {
		if entry, err = s.journal.Begin(ds, part, key, expected); err != nil {
			return resp, false, fmt.Errorf("ingest %s/%s: journal: %w", ds, part, err)
		}
		// Abort after a successful Commit is a no-op; on any error return it
		// retires the entry so the journal does not hold its segment live.
		defer entry.Abort()
	}

	reqSpan := obs.SpanFromContext(ctx)
	readSpan := reqSpan.Start("ingest_read")
	defer readSpan.End()
	var n int64
	for {
		vals, err := source()
		if err != nil {
			return resp, false, err
		}
		if len(vals) == 0 {
			break
		}
		for _, v := range vals {
			smp.Feed(v)
		}
		if entry != nil {
			asp := readSpan.Start("wal_append")
			asp.SetValue("values", int64(len(vals)))
			err := entry.Append(vals)
			asp.SetError(err)
			asp.End()
			if err != nil {
				return resp, false, fmt.Errorf("ingest %s/%s: journal: %w", ds, part, err)
			}
		}
		n += int64(len(vals))
	}
	if n == 0 {
		return resp, false, badRequest("ingest %s/%s: no values in body", ds, part)
	}
	readSpan.SetValue("values", n)
	readSpan.End()
	if entry != nil {
		// Seal is the durability barrier: after it returns, a crash anywhere
		// below replays this batch on restart — the ack is safe to send.
		ssp := reqSpan.Start("wal_seal")
		err := entry.SealContext(obs.ContextWithSpan(ctx, ssp), n)
		ssp.SetError(err)
		ssp.End()
		if err != nil {
			return resp, false, fmt.Errorf("ingest %s/%s: journal seal: %w", ds, part, err)
		}
	}
	fsp := reqSpan.Start("finalize")
	sample, err := smp.Finalize()
	fsp.SetError(err)
	fsp.End()
	if err != nil {
		return resp, false, err
	}
	rsp := reqSpan.Start("rollin")
	err = s.wh.RollIn(ds, part, sample)
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		return resp, false, err
	}
	if entry != nil {
		// A commit failure is not fatal: the sample is durably rolled in and
		// replaying the sealed entry after a crash converges on the same
		// partition (RollIn replaces by ID).
		_ = entry.Commit()
	}
	resp = IngestResponse{Dataset: ds, Partition: part, Read: n, Sample: sampleMeta(sample)}
	if key != "" {
		s.idem.put(idemScope(ds, part, key), resp)
	}
	return resp, false, nil
}

func (s *Server) handleRollOut(w http.ResponseWriter, r *http.Request) error {
	if s.coordinated(r) {
		return s.handleRollOutCluster(w, r)
	}
	ds, part := r.PathValue("ds"), r.PathValue("part")
	if err := s.rollOutLocal(ds, part); err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, RollOutResponse{Dataset: ds, Partition: part, Status: "rolled out"})
	return nil
}

// rollOutLocal drops one partition from the local warehouse.
func (s *Server) rollOutLocal(ds, part string) error {
	parts, err := s.wh.Partitions(ds)
	if err != nil {
		return err
	}
	if !slices.Contains(parts, part) {
		// RollOut itself is an idempotent no-op; the API reports the truth.
		return notFound("partition %s/%s not found", ds, part)
	}
	return s.wh.RollOut(ds, part)
}

// boolParam parses a boolean query parameter; absent means def.
func boolParam(r *http.Request, name string, def bool) (bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, badRequest("bad %s %q", name, raw)
	}
	return v, nil
}

// parseReadQuery resolves the parameters every merged read shares:
//
//	?parts=a,b     the partition subset (empty = all)
//	?partial=0     fail on any unreadable partition (the default degrades
//	               and reports coverage)
//	?maxerr=       a fraction-scale confidence half-width target in (0,1)
//	?maxtime=      a Go duration the merge may spend; either bound engages
//	               the planner, and absent both the query runs the ordinary
//	               full merge unchanged
//	?confidence=   default 0.95
//	?explain=1     attach the request's span tree (returned separately)
func parseReadQuery(r *http.Request) (q readQuery, explain bool, err error) {
	q = readQuery{ds: r.PathValue("ds"), confidence: 0.95}
	params := r.URL.Query()
	if raw := params.Get("parts"); raw != "" {
		for _, f := range strings.Split(raw, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				return q, false, badRequest("empty partition id in parts=%q", raw)
			}
			q.ids = append(q.ids, f)
		}
	}
	if q.partial, err = boolParam(r, "partial", true); err != nil {
		return q, false, err
	}
	if raw := params.Get("maxerr"); raw != "" {
		v, perr := strconv.ParseFloat(raw, 64)
		if perr != nil || v <= 0 || v >= 1 {
			return q, false, badRequest("bad maxerr %q (want a fraction in (0,1))", raw)
		}
		q.bounds.MaxErr = v
	}
	if raw := params.Get("maxtime"); raw != "" {
		d, perr := time.ParseDuration(raw)
		if perr != nil || d <= 0 {
			return q, false, badRequest("bad maxtime %q (want a positive duration like 50ms)", raw)
		}
		q.bounds.MaxTime = d
	}
	if raw := params.Get("confidence"); raw != "" {
		if q.confidence, err = strconv.ParseFloat(raw, 64); err != nil {
			return q, false, badRequest("bad confidence %q", raw)
		}
	}
	explain, err = boolParam(r, "explain", false)
	return q, explain, err
}

// rangePred parses a count:LO..HI / fraction:LO..HI query into its kind,
// bounds and range predicate — shared by Answer, the maxerr gate (these
// two kinds are the only ones whose fraction-scale error a maxerr bound can
// promise) and the sketch pruning layer, which needs the raw bounds to test
// sidecars against.
func rangePred(q string) (kind string, lo, hi int64, pred func(int64) bool, err error) {
	kind, spec, _ := strings.Cut(q, ":")
	loRaw, hiRaw, ok := strings.Cut(spec, "..")
	if !ok {
		return "", 0, 0, nil, badRequest("bad range %q (want %s:LO..HI)", q, kind)
	}
	lo, err1 := strconv.ParseInt(loRaw, 10, 64)
	hi, err2 := strconv.ParseInt(hiRaw, 10, 64)
	if err1 != nil || err2 != nil || lo > hi {
		return "", 0, 0, nil, badRequest("bad range bounds %q", q)
	}
	return kind, lo, hi, func(v int64) bool { return v >= lo && v <= hi }, nil
}

// readQuery is one parsed sample/estimate read, local or scattered.
type readQuery struct {
	ds         string
	ids        []string
	partial    bool
	bounds     plan.Bounds
	confidence float64
	// rng and pred are the value range of a count:/fraction: query and its
	// predicate (nil for every other kind); prune lets sketch sidecars drop
	// partitions provably outside rng.
	rng   *warehouse.SketchRange
	pred  func(int64) bool
	prune bool
	// wantSketch asks for the sketch union of the covered partitions.
	wantSketch bool
}

// readResult is what a read hands the answer stage: one merged sample, or —
// for a local unbounded range query — strata plus proven-zero populations
// (smp nil). shards is set by the cluster coordinator only.
type readResult struct {
	smp      *core.Sample[int64]
	strata   *core.Stratified[int64]
	zeros    []estimate.ZeroStratum
	cov      Coverage
	degraded bool
	shards   []ShardStatus
	plan     *PlanInfo
	sketch   *sketch.Summary
}

// meta summarizes the inputs behind the answer. For strata that is the
// loaded strata plus the proven-zero populations the estimate also covers;
// Kind "stratified" marks that no single merged sample backs it.
func (rd readResult) meta() SampleMeta {
	if rd.smp != nil {
		return sampleMeta(rd.smp)
	}
	var size, parent, footprint int64
	if rd.strata != nil {
		size, parent = rd.strata.SampleSize(), rd.strata.ParentSize()
		for _, s := range rd.strata.Strata() {
			footprint += s.Footprint()
		}
	}
	for _, z := range rd.zeros {
		parent += z.Pop
	}
	meta := SampleMeta{Kind: "stratified", Size: size, ParentSize: parent, Footprint: footprint}
	if parent > 0 {
		meta.Fraction = float64(size) / float64(parent)
	}
	return meta
}

// readFrom answers q from the cluster when this request coordinates one, and
// from the local warehouse otherwise.
func (s *Server) readFrom(r *http.Request, q readQuery) (readResult, error) {
	if s.coordinated(r) {
		return s.scatterMerged(r, q)
	}
	return s.localRead(r.Context(), q)
}

// localRead runs q against this node's own warehouse; it is the only caller
// of the warehouse's read entry points, and the query alone picks between
// them. An unbounded range query reads strata: sketch sidecars prove-prune
// partitions with zero range overlap before the loader runs, with an
// estimate byte-identical to the unpruned one. Everything else reads one
// merged sample, planned when bounded. A bound stops on the query's own
// interval when there is a predicate. Where none is in hand (the sample
// endpoint, shard-local scatter legs) maxerr stops on the query-agnostic
// proxy: the worst-case p=0.5 width upper-bounds any range query's, so a
// bound met under it holds for whatever estimate the caller — or a
// coordinator — later builds from the covered sample. Warehouse errors travel
// up unwrapped; errorStatus maps them.
func (s *Server) localRead(ctx context.Context, q readQuery) (readResult, error) {
	var out readResult
	var cov warehouse.MergeCoverage
	var err error
	if q.rng != nil && !q.bounds.Bounded() {
		out.strata, out.zeros, cov, err = s.wh.StratifiedRange(ctx, q.ds, q.ids, *q.rng, q.prune, q.partial)
	} else {
		pq := warehouse.PlannedQuery[int64]{Bounds: q.bounds, Confidence: q.confidence}
		switch {
		case q.pred != nil:
			pq.HalfWidth = func(acc *core.Sample[int64], totalPop, provenZero int64) (float64, bool) {
				e, herr := estimate.BoundedFractionProvenZero(acc, q.pred, q.confidence, totalPop, provenZero)
				return estimate.HalfWidth(e), herr == nil
			}
		case q.bounds.MaxErr > 0:
			z, zerr := estimate.ZCrit(q.confidence)
			pq.HalfWidth = func(acc *core.Sample[int64], totalPop, provenZero int64) (float64, bool) {
				return estimate.ProxyHalfWidthProvenZeroZ(acc.Size(), acc.ParentSize, totalPop, provenZero, z), zerr == nil
			}
		}
		if q.prune {
			pq.SketchRange = q.rng
		}
		var exec *warehouse.PlanExecution
		out.smp, cov, exec, err = s.wh.MergedSamplePlanned(ctx, q.ds, q.ids, q.partial, pq)
		out.plan = planInfo(q.bounds, exec, len(cov.SketchPruned))
	}
	if err != nil {
		return readResult{}, err
	}
	out.cov = coverage(cov)
	out.degraded = out.cov.Partial
	if q.wantSketch && out.smp != nil {
		// Best-effort: a partition without a rebuildable sidecar simply
		// leaves the union empty and the caller falls back to the sample.
		out.sketch, _ = s.wh.DatasetSketch(ctx, q.ds, cov.Merged...)
	}
	return out, nil
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) error {
	q, explain, err := parseReadQuery(r)
	if err != nil {
		return err
	}
	limit := -1
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, perr := strconv.Atoi(raw)
		if perr != nil || v < 0 {
			return badRequest("bad limit %q", raw)
		}
		limit = v
	}
	// ?sketch=1 attaches the merged sketch sidecar of the covered partitions.
	if q.wantSketch, err = boolParam(r, "sketch", false); err != nil {
		return err
	}
	rd, err := s.readFrom(r, q)
	if err != nil {
		return err
	}
	resp := SampleResponse{Dataset: q.ds, Sample: sampleMeta(rd.smp), Coverage: rd.cov,
		Degraded: rd.degraded, Shards: rd.shards, Plan: rd.plan, Sketch: rd.sketch}
	if explain {
		resp.TraceID, resp.Trace = explainTrace(r)
	}
	if limit != 0 {
		entries := rd.smp.Hist.Entries()
		sort.Slice(entries, func(i, j int) bool { return entries[i].Value < entries[j].Value })
		if limit > 0 && len(entries) > limit {
			entries = entries[:limit]
			resp.Truncated = true
		}
		resp.Values = make([]ValueCount, len(entries))
		for i, e := range entries {
			resp.Values[i] = ValueCount{Value: e.Value, Count: e.Count}
		}
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// handleEstimate answers an approximate query over the merged sample of the
// requested partitions. Query grammar (?q=):
//
//	avg | sum | median | distinct
//	count:LO..HI | fraction:LO..HI   (closed value range)
//	quantile:Q                        (Q in [0,1])
//	topk:K | groupby:DIV
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) error {
	start := nowNS()
	q := r.URL.Query().Get("q")
	if q == "" {
		return badRequest("q required (avg | sum | median | distinct | count:LO..HI | fraction:LO..HI | quantile:Q | topk:K | groupby:DIV)")
	}
	rq, explain, err := parseReadQuery(r)
	if err != nil {
		return err
	}
	// ?prune= (default on) lets range queries use sketch sidecars to skip
	// partitions provably outside the range. Pruning never changes the
	// returned estimate — ?prune=0 exists for verification and benchmarking,
	// not correctness.
	if rq.prune, err = boolParam(r, "prune", true); err != nil {
		return err
	}
	// Parse range kinds up front: the sketch pruning layer needs the raw
	// bounds, and a maxerr bound is only defined for these kinds (the only
	// ones whose fraction-scale error it can promise); other kinds can still
	// be time-bounded.
	rangeKind := ""
	if strings.HasPrefix(q, "count:") || strings.HasPrefix(q, "fraction:") {
		var lo, hi int64
		if rangeKind, lo, hi, rq.pred, err = rangePred(q); err != nil {
			return err
		}
		rq.rng = &warehouse.SketchRange{Lo: lo, Hi: hi}
	}
	if rq.bounds.MaxErr > 0 && rangeKind == "" {
		return badRequest("maxerr applies only to count:LO..HI and fraction:LO..HI queries (got %q); use maxtime to bound other kinds", q)
	}
	// Distinct/topk answers union sketch sidecars when every covered
	// partition (and shard) has one; the merged sample stays the fallback.
	rq.wantSketch = q == "distinct" || strings.HasPrefix(q, "topk:")
	rd, err := s.readFrom(r, rq)
	if err != nil {
		return err
	}
	resp := EstimateResponse{
		Dataset: rq.ds, Query: q, Confidence: rq.confidence,
		Sample: rd.meta(), Coverage: rd.cov,
		Degraded: rd.degraded, Shards: rd.shards, Plan: rd.plan,
	}
	esp := obs.SpanFromContext(r.Context()).Start("estimate")
	esp.SetLabel("q", q)
	// Strata and bounded samples have their own range arithmetic; a plain
	// merged sample (a coordinated unbounded range query) answers like any
	// other kind.
	if rangeKind != "" && (rd.smp == nil || rd.plan != nil) {
		var e estimate.Estimate
		if e, err = rangeEstimate(rd, rangeKind, rq.pred, rq.confidence); err != nil {
			err = badRequest("%v", err)
		}
		resp.Estimate = &e
	} else {
		err = Answer(&resp, rd.smp, q, rq.confidence, rd.sketch)
	}
	esp.SetError(err)
	esp.End()
	if err != nil {
		return err
	}
	resp.ElapsedNS = nowNS() - start
	if explain {
		resp.TraceID, resp.Trace = explainTrace(r)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// rangeEstimate is the estimator arithmetic of the two count:/fraction:
// reads that do not go through Answer.
//
// Strata (a local unbounded query): partitions whose sketch sidecar proved
// zero overlap enter the stratified expansion as exact zero strata of known
// population instead of being loaded. The substitution is an identity of the
// stratified formulas, so the answer is byte-identical with pruning on
// (?prune=1, the default) or off — the property the sketch bench asserts
// estimate by estimate.
//
// A bounded merged sample: the answer is over the full requested population;
// the interval carries the pruned partitions' worst case — and the
// proven-zero partitions' exactly-known zero — so it stays honest no matter
// what the planner left unloaded. The achieved half-width is written back
// into the plan at fraction scale.
func rangeEstimate(rd readResult, kind string, pred func(int64) bool, confidence float64) (estimate.Estimate, error) {
	switch {
	case rd.smp != nil:
		pi := rd.plan
		bounded := estimate.BoundedFractionProvenZero[int64]
		if kind == "count" {
			bounded = estimate.BoundedCountProvenZero[int64]
		}
		e, err := bounded(rd.smp, pred, confidence, pi.TotalPopulation, pi.ProvenZeroPopulation)
		if err != nil {
			return e, err
		}
		pi.AchievedHalfWidth = estimate.HalfWidth(e)
		if kind == "count" && pi.TotalPopulation > 0 {
			pi.AchievedHalfWidth /= float64(pi.TotalPopulation)
		}
		return e, nil
	case rd.strata == nil:
		// Every readable partition was proven out of range: zero matches,
		// exactly — byte-identical to what the unpruned estimator returns
		// for strata that contain no matching value (count and fraction
		// alike). The answer is exact when every pruned partition held an
		// exhaustive sample.
		e := estimate.Estimate{Exact: true}
		for _, z := range rd.zeros {
			if !z.Exhaustive {
				e.Exact = false
				break
			}
		}
		return e, nil
	}
	est, err := estimate.NewStratifiedWithConfidence(rd.strata, confidence)
	if err != nil {
		return estimate.Estimate{}, err
	}
	if kind == "count" {
		return est.CountPruned(pred, rd.zeros)
	}
	return est.FractionPruned(pred, rd.zeros)
}

// Answer is the query grammar's one implementation (see handleEstimate for
// the grammar): it evaluates q against a merged sample at the given confidence
// and fills the one result field of resp that q's kind selects. sk, when
// non-nil, is the sketch union of the covered partitions — the authoritative
// distinct/topk source, with the sample-based estimators kept alongside.
// handleEstimate and `swcli estimate` both answer through it; a query it
// refuses is a 400 with the same message on either.
func Answer(resp *EstimateResponse, smp *core.Sample[int64], q string, confidence float64, sk *sketch.Summary) error {
	est, err := estimate.NewWithConfidence(smp, confidence)
	if err != nil {
		return badRequest("%v", err)
	}
	setEst := func(e estimate.Estimate, err error) error {
		if err != nil {
			return badRequest("%v", err)
		}
		resp.Estimate = &e
		return nil
	}
	switch {
	case q == "avg":
		return setEst(est.Avg(func(v int64) float64 { return float64(v) }))
	case q == "sum":
		return setEst(est.Sum(func(v int64) float64 { return float64(v) }))
	case q == "median":
		return quantile(resp, smp, 0.5)
	case q == "distinct":
		resp.Distinct = &DistinctResult{
			InSample: est.DistinctNaive(),
			Chao1:    est.DistinctChao1(),
			GEE:      est.DistinctGEE(),
			Method:   "sample",
		}
		if sk != nil {
			resp.Distinct.KMV = sk.DistinctEstimate()
			// KMV is authoritative only when the union observed every row:
			// stream-built sidecars, or exhaustive samples (full frequency
			// histograms). A sample-source union hashed only sampled values,
			// so its distinct estimate is bounded by the sample and the
			// extrapolating sample estimators remain the best answer.
			if sk.Source == sketch.SourceStream || sk.Exhaustive {
				resp.Distinct.Method = "kmv"
			}
		}
		return nil
	case strings.HasPrefix(q, "quantile:"):
		qv, err := strconv.ParseFloat(strings.TrimPrefix(q, "quantile:"), 64)
		if err != nil {
			return badRequest("bad quantile %q", q)
		}
		return quantile(resp, smp, qv)
	case strings.HasPrefix(q, "topk:"):
		k, err := strconv.Atoi(strings.TrimPrefix(q, "topk:"))
		if err != nil || k < 1 {
			return badRequest("bad topk %q", q)
		}
		resp.TopK = est.TopK(k)
		if resp.TopK == nil {
			resp.TopK = []estimate.FreqEntry[int64]{}
		}
		// Heavy-hitter counts are population-scale only when the union
		// observed every row; sample-scale counts would mislead.
		if sk != nil && (sk.Source == sketch.SourceStream || sk.Exhaustive) {
			resp.TopKHeavy = sk.TopK(k)
		}
		return nil
	case strings.HasPrefix(q, "groupby:"):
		div, err := strconv.ParseInt(strings.TrimPrefix(q, "groupby:"), 10, 64)
		if err != nil || div < 1 {
			return badRequest("bad groupby divisor %q", q)
		}
		groups, err := estimate.GroupBy(est, func(v int64) int64 { return v / div })
		if err != nil {
			return badRequest("%v", err)
		}
		resp.Groups = groups
		return nil
	case strings.HasPrefix(q, "count:"), strings.HasPrefix(q, "fraction:"):
		kind, _, _, pred, err := rangePred(q)
		if err != nil {
			return err
		}
		if kind == "count" {
			return setEst(est.Count(pred))
		}
		return setEst(est.Fraction(pred))
	default:
		return badRequest("unknown query %q", q)
	}
}

// quantile answers median/quantile queries via the ordered estimator.
func quantile(resp *EstimateResponse, smp *core.Sample[int64], q float64) error {
	oe, err := estimate.NewOrdered(smp, func(a, b int64) bool { return a < b })
	if err != nil {
		return badRequest("%v", err)
	}
	v, err := oe.Quantile(q)
	if err != nil {
		return badRequest("%v", err)
	}
	resp.Quantile = &v
	return nil
}
