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

// EstimateResponse is the GET estimate body: the answer (one field of
// estimate.Result, per the query kind) with the sample metadata and merge
// coverage every response carries.
type EstimateResponse struct {
	Dataset         string     `json:"dataset"`
	Query           string     `json:"query"`
	Confidence      float64    `json:"confidence"`
	estimate.Result            // inline: estimate, quantile, distinct, topk, topk_heavy, groups
	Sample          SampleMeta `json:"sample"`
	Coverage        Coverage   `json:"coverage"`
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
			sc = bufio.NewScanner(http.MaxBytesReader(w, r.Body, maxBodyBytes))
			sc.Buffer(make([]byte, scanBufStart), maxIngestLine)
			chunk = make([]int64, 0, ingestChunk)
		}
		chunk = chunk[:0]
		for len(chunk) < ingestChunk && sc.Scan() {
			v, ok := parseShortInt(sc.Bytes())
			if !ok {
				// Everything else — blank, padded, long or malformed — is
				// read exactly as strconv reads the trimmed line.
				line := strings.TrimSpace(sc.Text())
				if line == "" {
					continue
				}
				var err error
				if v, err = strconv.ParseInt(line, 10, 64); err != nil {
					return nil, badRequest("%s: value %d: %v", what, n+1, err)
				}
			}
			chunk = append(chunk, v)
			n++
		}
		if err := sc.Err(); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				return nil, &httpError{code: http.StatusRequestEntityTooLarge,
					msg: fmt.Sprintf("ingest body exceeds %d bytes", maxBodyBytes)}
			}
			return nil, badRequest("%s: read: %v", what, err)
		}
		return chunk, nil
	}
}

// parseShortInt reads the line an ingest body almost always holds: an
// optional sign and 1–18 decimal digits, nothing else. Eighteen digits cannot
// overflow an int64, so the value is exactly strconv.ParseInt's. Any other
// line reports false and is left to the general path.
func parseShortInt(line []byte) (int64, bool) {
	neg := false
	if len(line) > 0 && (line[0] == '-' || line[0] == '+') {
		neg = line[0] == '-'
		line = line[1:]
	}
	if len(line) == 0 || len(line) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range line {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
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
		core.FeedAll(smp, vals)
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
//	?confidence=   0.90, 0.95 (the default) or 0.99
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
		if perr != nil || !(v > 0 && v < 1) {
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
		var perr error
		q.confidence, perr = strconv.ParseFloat(raw, 64)
		if _, zerr := estimate.ZCrit(q.confidence); perr != nil || zerr != nil {
			return q, false, badRequest("bad confidence %q (use 0.90, 0.95 or 0.99)", raw)
		}
	}
	explain, err = boolParam(r, "explain", false)
	return q, explain, err
}

// readQuery is one parsed sample/estimate read, local or scattered.
type readQuery struct {
	ds         string
	ids        []string
	partial    bool
	bounds     plan.Bounds
	confidence float64
	// query is the estimate's parsed ?q= (zero for a sample read); prune
	// lets sketch sidecars drop partitions provably outside a range query's
	// value range.
	query estimate.Query
	prune bool
	// wantSketch asks for the sketch union of the covered partitions.
	wantSketch bool
}

// readResult is what a read hands the answer stage: the design the answer
// stands on — one merged sample, or, for a local unbounded range query,
// strata — with the proven and ignored population around it. shards is set
// by the cluster coordinator only.
type readResult struct {
	design   estimate.Design[int64]
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
	d := rd.design
	if d.Sample != nil {
		return sampleMeta(d.Sample)
	}
	var size, footprint int64
	if d.Strata != nil {
		size = d.Strata.SampleSize()
		for _, s := range d.Strata.Strata() {
			footprint += s.Footprint()
		}
	}
	parent := d.Pop()
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
	rng := warehouse.SketchRange{Lo: q.query.Lo, Hi: q.query.Hi}
	if q.query.Range() && !q.bounds.Bounded() {
		out.design.Strata, out.design.Proven, cov, err = s.wh.StratifiedRange(ctx, q.ds, q.ids, rng, q.prune, q.partial)
	} else {
		pq := warehouse.PlannedQuery[int64]{Bounds: q.bounds, Confidence: q.confidence}
		z, _ := estimate.ZCrit(q.confidence) // parseReadQuery admits supported levels only
		if q.query.Range() || q.bounds.MaxErr > 0 {
			pred := q.query.Pred()
			pq.HalfWidth = func(acc *core.Sample[int64], totalPop, provenZero int64) (float64, bool) {
				if !q.query.Range() {
					return estimate.ProxyWidth(acc.Size(), acc.ParentSize, provenZero, totalPop, z), true
				}
				e, herr := estimate.Interval(estimate.Planned(acc, totalPop, provenZero), pred, true, z)
				return estimate.HalfWidth(e), herr == nil
			}
		}
		if q.query.Range() && q.prune {
			pq.SketchRange = &rng
		}
		var exec *warehouse.PlanExecution
		out.design.Sample, cov, exec, err = s.wh.MergedSamplePlanned(ctx, q.ds, q.ids, q.partial, pq)
		if exec != nil && err == nil {
			out.design = estimate.Planned(out.design.Sample, exec.TotalPop, exec.ProvenZeroPop)
			out.design.Proven = exec.Proven
		}
		out.plan = planInfo(q.bounds, exec, len(cov.SketchPruned))
	}
	if err != nil {
		return readResult{}, err
	}
	out.cov = coverage(cov)
	out.degraded = out.cov.Partial
	if q.wantSketch && out.design.Sample != nil {
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
	resp := SampleResponse{Dataset: q.ds, Sample: sampleMeta(rd.design.Sample), Coverage: rd.cov,
		Degraded: rd.degraded, Shards: rd.shards, Plan: rd.plan, Sketch: rd.sketch}
	if explain {
		resp.TraceID, resp.Trace = explainTrace(r)
	}
	if limit != 0 {
		entries := rd.design.Sample.Hist.Entries()
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

// handleEstimate answers an approximate query (?q=, the grammar
// estimate.ParseQuery reads) over the requested partitions: the read builds
// the design and estimate.Answer, the one answer every read shares, fills in
// the result.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) error {
	start := nowNS()
	raw := r.URL.Query().Get("q")
	query, err := estimate.ParseQuery(raw)
	if err != nil {
		return badRequest("%v", err)
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
	if rq.bounds.MaxErr > 0 && !query.Range() {
		return badRequest("maxerr applies only to count:LO..HI and fraction:LO..HI queries (got %q); use maxtime to bound other kinds", raw)
	}
	// Distinct/topk answers union sketch sidecars when every covered
	// partition (and shard) has one; the merged sample stays the fallback.
	rq.query, rq.wantSketch = query, query.Sketched()
	rd, err := s.readFrom(r, rq)
	if err != nil {
		return err
	}
	resp := EstimateResponse{
		Dataset: rq.ds, Query: raw, Confidence: rq.confidence,
		Sample: rd.meta(), Coverage: rd.cov,
		Degraded: rd.degraded, Shards: rd.shards, Plan: rd.plan,
	}
	esp := obs.SpanFromContext(r.Context()).Start("estimate")
	esp.SetLabel("q", raw)
	resp.Result, err = estimate.Answer(query, rd.design, rq.confidence, rd.sketch)
	if pi := rd.plan; err == nil && pi != nil && query.Range() {
		// A bounded range answer's own interval is the width its plan achieved,
		// reported at fraction scale.
		pi.AchievedHalfWidth = estimate.HalfWidth(*resp.Estimate)
		if query.Kind == "count" && pi.TotalPopulation > 0 {
			pi.AchievedHalfWidth /= float64(pi.TotalPopulation)
		}
	}
	esp.SetError(err)
	esp.End()
	if err != nil {
		return badRequest("%v", err)
	}
	resp.ElapsedNS = nowNS() - start
	if explain {
		resp.TraceID, resp.Trace = explainTrace(r)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
