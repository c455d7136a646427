package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
	"samplewh/internal/warehouse"
)

// forwardedHeader marks cluster-internal requests: a replica receiving a
// forwarded ingest (or roll-out) serves it locally instead of coordinating
// again, which is what prevents forwarding loops. Scatter queries use
// ?local=1 for the same purpose.
const forwardedHeader = "X-Swd-Forwarded"

// ShardStatus is one shard's outcome within a coordinated answer — the
// per-shard error detail of a degraded response.
type ShardStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// State is "ok", "error" or "breaker_open".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Partitions is how many of the answer's partitions this shard served.
	Partitions int `json:"partitions,omitempty"`
	// Hedged marks that the shard's contribution came from (or it received)
	// a hedged duplicate request.
	Hedged bool `json:"hedged,omitempty"`
}

// shardAgg accumulates per-shard statuses across the scatter's groups.
type shardAgg struct {
	mu sync.Mutex
	m  map[int]*ShardStatus
}

func newShardAgg() *shardAgg { return &shardAgg{m: make(map[int]*ShardStatus)} }

// note records one attempt outcome for a shard, by callState. "ok" wins over
// errors (a shard that served anything is reported ok, with its errors elided
// — per-partition failures are already named in the coverage).
func (a *shardAgg) note(p *peer, err error, parts int, hedged bool) {
	state := callState(err)
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.m[p.id]
	if !ok {
		st = &ShardStatus{Shard: p.id, Addr: p.addr, State: state}
		a.m[p.id] = st
	}
	if state == "ok" {
		st.State = "ok"
		st.Error = ""
	} else if st.State != "ok" {
		st.State = state
		if st.Error == "" {
			st.Error = err.Error()
		}
	}
	st.Partitions += parts
	st.Hedged = st.Hedged || hedged
}

func (a *shardAgg) list() []ShardStatus {
	a.mu.Lock()
	out := make([]ShardStatus, 0, len(a.m))
	for _, st := range a.m {
		out = append(out, *st)
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// localParam reports whether ?local=1 pins the request to this shard's own
// warehouse (cluster-internal scatter requests set it).
func localParam(r *http.Request) bool {
	v, err := strconv.ParseBool(queryParams(r).Get("local"))
	return err == nil && v
}

// coordinated reports whether this request should run the scatter-gather
// coordinator rather than the local warehouse path.
func (s *Server) coordinated(r *http.Request) bool {
	return s.cluster != nil && !localParam(r) && r.Header.Get(forwardedHeader) == ""
}

// carve derives a child deadline spending the given fraction of the
// remaining request budget (everything, when the request has no deadline).
func carve(ctx context.Context, fraction float64) (context.Context, context.CancelFunc) {
	dl, ok := ctx.Deadline()
	if !ok {
		return context.WithCancel(ctx)
	}
	rem := time.Until(dl)
	return context.WithTimeout(ctx, time.Duration(float64(rem)*fraction))
}

// mergeReserve is how much of the time left until the request deadline the
// coordinator holds back from the scatter for the final merge: 10%, clamped
// to [10ms, 250ms].
func mergeReserve(deadline time.Time) time.Duration {
	return min(max(time.Until(deadline)/10, 10*time.Millisecond), 250*time.Millisecond)
}

// badGateway builds a 502 handler error — the cluster coordinator's "the
// shards I need are unreachable" failure.
func badGateway(format string, args ...any) error {
	return &httpError{code: http.StatusBadGateway, msg: fmt.Sprintf(format, args...)}
}

// sampleFromWire rebuilds a core.Sample from a shard's SampleResponse. The
// coordinator supplies the data set's core config (identical cluster-wide —
// dataset creation broadcasts it), which restores the merge-relevant fields
// the wire format does not carry.
func sampleFromWire(resp SampleResponse, cc core.Config) (*core.Sample[int64], error) {
	if cc.SizeModel == (histogram.SizeModel{}) {
		cc.SizeModel = histogram.DefaultSizeModel
	}
	if cc.ExceedProb == 0 {
		cc.ExceedProb = core.DefaultExceedProb
	}
	var kind core.Kind
	switch resp.Sample.Kind {
	case core.Exhaustive.String():
		kind = core.Exhaustive
	case core.BernoulliKind.String():
		kind = core.BernoulliKind
	case core.ReservoirKind.String():
		kind = core.ReservoirKind
	default:
		return nil, fmt.Errorf("shard sample with unknown kind %q", resp.Sample.Kind)
	}
	// handleSample sends values in ascending order, so the rule storage
	// applies to a value-ordered file is the whole check: each value above the
	// one before (no repeats, no hash map), each count positive, and the
	// counts never summing past the parent size (nor, so, past int64).
	entries := make([]histogram.Entry[int64], len(resp.Values))
	var size int64
	for i, vc := range resp.Values {
		if vc.Count <= 0 {
			return nil, fmt.Errorf("shard sample with non-positive count %d for value %d", vc.Count, vc.Value)
		}
		if vc.Count > resp.Sample.ParentSize-size {
			return nil, fmt.Errorf("shard sample counts pass its parent size %d at value %d", resp.Sample.ParentSize, vc.Value)
		}
		size += vc.Count
		if i > 0 && vc.Value <= resp.Values[i-1].Value {
			return nil, fmt.Errorf("shard sample value %d at %d is not above %d", vc.Value, i, resp.Values[i-1].Value)
		}
		entries[i] = histogram.Entry[int64]{Value: vc.Value, Count: vc.Count}
	}
	smp := &core.Sample[int64]{
		Kind:       kind,
		Hist:       histogram.FromEntries(cc.SizeModel, entries),
		ParentSize: resp.Sample.ParentSize,
		Q:          resp.Sample.Q,
		Config:     cc,
	}
	if err := smp.Validate(); err != nil {
		return nil, err
	}
	return smp, nil
}

// attemptOut is one replica attempt's outcome inside a group fetch.
type attemptOut struct {
	p      *peer
	res    readResult
	err    error
	hedged bool
}

// attemptGroup asks one replica for the merged sample of q.ids, one scatter
// group's partitions: the self peer reads its own warehouse through
// localRead — the same path a single node answers from — and remote peers
// serve GET sample?local=1 through the guarded call (which also forwards the
// trace ID, so both legs of a hedged pair join the same trace).
//
// Bounded queries propagate their error budget to every leg: each shard
// plans its own group's partitions and stops when its local proxy half-width
// meets maxerr, so early stopping happens where the partitions live instead
// of after the network round-trip. Remote legs get ~90% of the time budget,
// holding back a slice for the wire and the coordinator merge.
func (s *Server) attemptGroup(ctx context.Context, p *peer, q readQuery, hedged bool) attemptOut {
	out := attemptOut{p: p, hedged: hedged}
	sp := obs.SpanFromContext(ctx).Start("shard_fetch")
	sp.SetLabel("shard", strconv.Itoa(p.id))
	if hedged {
		sp.SetLabel("hedged", "true")
	}
	defer func() {
		sp.SetValue("partitions", int64(len(q.ids)))
		sp.SetError(out.err)
		sp.End()
	}()
	if p.self {
		// A nil sketch in the result makes the coordinator fall back to the
		// sample-based estimators for the whole scatter.
		out.res, out.err = s.localRead(ctx, q)
		return out
	}
	opts := QueryOpts{Parts: q.ids, Local: true, Sketch: q.wantSketch}
	if q.bounds.Bounded() {
		opts.MaxErr = q.bounds.MaxErr
		opts.MaxTime = q.bounds.MaxTime * 9 / 10
		opts.Confidence = q.confidence
	}
	var resp SampleResponse
	out.err = s.cluster.call(ctx, p, func() (err error) {
		resp, err = p.query.Sample(ctx, q.ds, opts)
		return err
	})
	if out.err != nil {
		return out
	}
	cfg, err := s.wh.Config(q.ds)
	if err != nil {
		out.err = err
		return out
	}
	// The leg's answer as the readResult localRead built on that shard: its
	// merged sample, its coverage of the group (Pruned and plan carry a
	// bounded query's outcome) and its sketch union when one was asked for.
	smp, err := sampleFromWire(resp, cfg.Core)
	if err != nil {
		out.err = fmt.Errorf("shard %d: %w", p.id, err)
		return out
	}
	out.res = readResult{design: estimate.Design[int64]{Sample: smp}, cov: resp.Coverage, degraded: resp.Degraded, plan: resp.Plan, sketch: resp.Sketch}
	return out
}

// fetchGroup drives one scatter group through its replica chain: the first
// replica is asked; after its hedge delay a duplicate fires to the next
// replica (first answer wins, the loser's context is canceled); a failed
// attempt fails over to the next replica immediately, and so does one the
// guarded call refused — a peer behind an open breaker costs the group no
// deadline and is not counted as a failover.
func (s *Server) fetchGroup(ctx context.Context, q readQuery, chain []*peer, agg *shardAgg) (readResult, error) {
	c := s.cluster
	results := make(chan attemptOut, len(chain))
	gctx, gcancel := context.WithCancel(ctx)
	defer gcancel()

	next, inflight := 0, 0
	launch := func(hedged bool) bool {
		if next == len(chain) {
			return false
		}
		p := chain[next]
		next++
		inflight++
		go func() { results <- s.attemptGroup(gctx, p, q, hedged) }()
		return true
	}

	launch(false)
	var hedgeTimer <-chan time.Time
	if len(chain) > 1 {
		t := time.NewTimer(chain[0].hedgeDelay(c.cfg.HedgeInitial))
		defer t.Stop()
		hedgeTimer = t.C
	}

	var firstErr error
	for {
		select {
		case out := <-results:
			inflight--
			if out.err == nil {
				gcancel() // the hedge race is decided; stop the loser
				if out.hedged {
					c.o.hedgeWins.Inc()
				}
				agg.note(out.p, nil, len(out.res.cov.Merged), out.hedged)
				return out.res, nil
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d (%s): %w", out.p.id, out.p.addr, out.err)
			}
			if ctx.Err() != context.Canceled { // a cancelled request is not the peer's failure
				agg.note(out.p, out.err, 0, out.hedged)
			}
			if ctx.Err() != nil {
				return readResult{}, firstErr
			}
			// A refused hedge passes its flag on: whoever answers in its place
			// is still the duplicate.
			refused := errors.Is(out.err, errBreakerOpen)
			if launch(refused && out.hedged) {
				if !refused {
					c.o.failovers.Inc()
				}
			} else if inflight == 0 {
				return readResult{}, firstErr
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if launch(true) {
				c.o.hedged.Inc()
			}
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = fmt.Errorf("scatter deadline: %w", ctx.Err())
			}
			return readResult{}, firstErr
		}
	}
}

// listPartitions gathers the cluster-wide partition list for a data set by
// asking every reachable peer for its local view and unioning the answers.
// Every partition is listed by each of its replicas, so the union stays
// complete as long as fewer than `replication` peers are unreachable; the
// returned count of unreachable peers lets the caller tell when the list
// itself may have blind spots (and the answer must be flagged degraded).
func (s *Server) listPartitions(ctx context.Context, ds string, agg *shardAgg) ([]string, int, error) {
	c := s.cluster
	lctx, cancel := carve(ctx, 0.3)
	defer cancel()
	set := make(map[string]bool)
	var mu sync.Mutex
	var failed atomic.Int32
	var wg sync.WaitGroup
	for _, p := range c.peers {
		if p.self {
			parts, err := s.wh.Partitions(ds)
			if err != nil {
				return nil, 0, err
			}
			mu.Lock()
			for _, id := range parts {
				set[id] = true
			}
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			var info DatasetInfo
			err := c.call(lctx, p, func() (err error) {
				info, err = p.query.Dataset(lctx, ds)
				return err
			})
			if err != nil {
				// An unknown data set on one peer only means it missed the
				// broadcast (it holds no partitions either); not a failure.
				if notFoundErr(err) {
					return
				}
				failed.Add(1)
				agg.note(p, fmt.Errorf("list partitions: %w", err), 0, false)
				return
			}
			mu.Lock()
			for _, id := range info.Partitions {
				set[id] = true
			}
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	out := make([]string, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Strings(out)
	return out, int(failed.Load()), nil
}

// healDatasetFromPeers is how a data set definition reaches a node that
// missed its creation (it was down during the create broadcast): the first
// peer that knows the data set supplies the definition and it is created
// locally. Every path that can meet an unknown data set pulls it this way on
// the first miss — a coordinated query, a forwarded or replayed ingest, an
// adopted partition — so a node converges whatever traffic reaches it first
// instead of answering 404 for data the cluster holds.
func (s *Server) healDatasetFromPeers(ctx context.Context, ds string) error {
	c := s.cluster
	hctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	for _, p := range c.peers {
		if p.self {
			continue
		}
		var info DatasetInfo
		err := c.call(hctx, p, func() (err error) {
			info, err = p.query.Dataset(hctx, ds)
			return err
		})
		if err != nil {
			continue // refused, unreachable, or it does not know the data set either
		}
		cfg, err := DatasetConfig(CreateDatasetRequest{
			Name:      info.Name,
			Algorithm: info.Algorithm,
			NF:        info.NF,
			P:         info.ExceedProb,
			SBRate:    info.SBRate,
		})
		if err != nil {
			return fmt.Errorf("heal data set %q from shard %d: %w", ds, p.id, err)
		}
		if err := s.wh.CreateDataset(ds, cfg); err != nil && !errors.Is(err, warehouse.ErrDatasetExists) {
			return fmt.Errorf("heal data set %q: %w", ds, err)
		}
		return nil
	}
	return notFound("unknown data set %q", ds)
}

// scatterMerged is the coordinator's query path: resolve the requested
// partitions, group them by replica chain, fetch every group (hedged, with
// failover), and merge the gathered shard samples into one uniform sample
// of the covered union — the top of the paper's merge tree, run across the
// network. The returned coverage names every partition a dead or slow shard
// cost us; the bool is the response's degraded flag.
//
// With bounds set the scatter becomes a bounded query: every shard prunes
// its own group under the propagated budget and the returned PlanInfo sums
// the per-shard plans. The achieved half-width is recomputed from the final
// merged sample and reported honestly — it can exceed maxerr even when every
// shard met it locally, because the cross-shard merge subsamples down to one
// partition's sample size while the covered population grows.
func (s *Server) scatterMerged(r *http.Request, q readQuery) (readResult, error) {
	c := s.cluster
	ctx := r.Context()
	ds, bounds := q.ds, q.bounds
	cfg, err := s.wh.Config(ds)
	if err != nil {
		if err := s.healDatasetFromPeers(ctx, ds); err != nil {
			return readResult{}, err
		}
		if cfg, err = s.wh.Config(ds); err != nil {
			return readResult{}, err
		}
	}
	c.o.scatter.Inc()
	sp := obs.SpanFromContext(ctx).Start("scatter")
	defer sp.End()
	agg := newShardAgg()

	// blind is set when discovery may have missed partitions: once as many
	// peers are unreachable as there are replicas per partition, some
	// partition may have had no live replica to list it — the answer must be
	// flagged degraded even though the coverage over the *known* partitions
	// looks complete.
	blind := false
	requested := q.ids
	if len(requested) == 0 {
		var failed int
		requested, failed, err = s.listPartitions(ctx, ds, agg)
		if err != nil {
			return readResult{}, err
		}
		blind = failed >= c.cfg.Replication
	} else {
		seen := make(map[string]bool, len(requested))
		for _, id := range requested {
			if seen[id] {
				return readResult{}, badRequest("duplicate partition %q in parts", id)
			}
			seen[id] = true
		}
	}
	if len(requested) == 0 {
		return readResult{}, notFound("data set %q has no partitions", ds)
	}

	// Group partitions by their (identical) replica chains so one request
	// per chain covers them all, and a hedged duplicate of that request has
	// a well-defined alternate target holding the same partitions.
	type group struct {
		key   string
		parts []string
		chain []*peer
	}
	byChain := make(map[string]*group)
	for _, id := range requested {
		chain := c.replicas(ds, id)
		key := ""
		for _, p := range chain {
			key += strconv.Itoa(p.id) + ","
		}
		g, ok := byChain[key]
		if !ok {
			g = &group{key: key, chain: chain}
			byChain[key] = g
		}
		g.parts = append(g.parts, id)
	}
	groups := make([]*group, 0, len(byChain))
	for _, g := range byChain {
		sort.Strings(g.parts)
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
	sp.SetValue("groups", int64(len(groups)))
	sp.SetValue("partitions", int64(len(requested)))

	// Scatter: every group fetch runs concurrently under the request
	// deadline minus the merge reserve. A leg carries the bounds and the
	// sketch request but never the predicate: shards answer partial reads so
	// the coordinator can name what each one cost, stop on the proxy width,
	// and do not prune.
	leg := readQuery{ds: ds, partial: true, bounds: bounds, confidence: q.confidence, wantSketch: q.wantSketch}
	fctx := ctx
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		fctx, cancel = context.WithDeadline(ctx, dl.Add(-mergeReserve(dl)))
		defer cancel()
	}
	type fetchOut struct {
		g   *group
		res readResult
		err error
	}
	outs := make([]fetchOut, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		c.o.groups.Inc()
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			gq := leg
			gq.ids = g.parts
			res, err := s.fetchGroup(fctx, gq, g.chain, agg)
			outs[i] = fetchOut{g: g, res: res, err: err}
		}(i, g)
	}
	wg.Wait()

	// Gather: assemble coverage and merge the group samples as the warehouse
	// merges partitions (deterministic order and seed).
	cov := Coverage{Requested: requested}
	var samples []*core.Sample[int64]
	var sketches []*sketch.Summary
	sketchComplete := q.wantSketch
	for _, out := range outs {
		if out.err != nil {
			for _, id := range out.g.parts {
				cov.Skipped = append(cov.Skipped, SkippedPartition{
					ID: id, Reason: fmt.Sprintf("shard unreachable: %v", out.err),
				})
			}
			continue
		}
		cov.Merged = append(cov.Merged, out.res.cov.Merged...)
		cov.Skipped = append(cov.Skipped, out.res.cov.Skipped...)
		cov.Pruned = append(cov.Pruned, out.res.cov.Pruned...)
		if smp := out.res.design.Sample; smp != nil {
			samples = append(samples, smp)
		}
		// A shard that answered without a sidecar poisons the union: mixing
		// sketch and non-sketch shards would silently undercount, so the
		// whole scatter falls back to the sample-based estimators.
		if out.res.sketch == nil {
			sketchComplete = false
		} else {
			sketches = append(sketches, out.res.sketch)
		}
	}
	var skUnion *sketch.Summary
	if sketchComplete && len(sketches) > 0 {
		skUnion = sketch.MergeAll(sketches...)
	}
	sort.Strings(cov.Merged)
	sort.Strings(cov.Pruned)
	sort.Slice(cov.Skipped, func(i, j int) bool { return cov.Skipped[i].ID < cov.Skipped[j].ID })

	// Bounded scatters report the summed shard plans. A shard that stopped
	// early decides the aggregate stop reason: "maxerr" wins over "maxtime"
	// wins over "exhausted" (any early stop means the bounds did real work).
	var pinfo *PlanInfo
	if bounds.Bounded() {
		pinfo = &PlanInfo{MaxErr: bounds.MaxErr, MaxTimeNS: int64(bounds.MaxTime),
			StopReason: "exhausted", AchievedHalfWidth: -1}
		for _, out := range outs {
			pi := out.res.plan
			if out.err != nil || pi == nil {
				continue
			}
			pinfo.Partitions += pi.Partitions
			pinfo.PredictedStop += pi.PredictedStop
			pinfo.Loaded += pi.Loaded
			pinfo.Pruned += pi.Pruned
			pinfo.TotalPopulation += pi.TotalPopulation
			switch pi.StopReason {
			case "maxerr":
				pinfo.StopReason = "maxerr"
			case "maxtime":
				if pinfo.StopReason != "maxerr" {
					pinfo.StopReason = "maxtime"
				}
			}
		}
	}

	cov.Partial = len(cov.Skipped) > 0
	degraded := cov.Partial || blind
	if degraded {
		c.o.degraded.Inc()
		// Read repair: the partitions this answer could not cover are
		// exactly the ones some replica needs to heal — queue them for
		// targeted repair ahead of the next full sweep.
		s.noteDegradedCoverage(ds, cov.Skipped)
	}
	if !q.partial && degraded {
		if len(cov.Skipped) > 0 {
			return readResult{}, badGateway("strict merge: %d of %d requested partitions unavailable (first: %s: %s)",
				len(cov.Skipped), len(requested), cov.Skipped[0].ID, cov.Skipped[0].Reason)
		}
		return readResult{}, badGateway("strict merge: partition discovery incomplete (unreachable peers >= replication factor %d)",
			c.cfg.Replication)
	}
	if len(samples) == 0 {
		return readResult{}, badGateway("no shard reachable for any requested partition of %q", ds)
	}
	merged, err := warehouse.Merge(obs.ContextWithSpan(ctx, sp), cfg.Algorithm, samples, randx.New(coordinatorSeed^hashString(ds)), 1)
	if err != nil {
		return readResult{}, fmt.Errorf("coordinator merge: %w", err)
	}
	rd := readResult{design: estimate.Design[int64]{Sample: merged}, cov: cov, degraded: degraded, shards: agg.list(), plan: pinfo, sketch: skUnion}
	if pinfo != nil {
		// What the legs did not cover is ignored, and the proxy prices it.
		rd.design = estimate.Planned(merged, pinfo.TotalPopulation, 0)
		z, _ := estimate.ZCrit(q.confidence) // parseReadQuery admits supported levels only
		pinfo.CoveredPopulation = merged.ParentSize
		pinfo.AchievedHalfWidth = estimate.ProxyWidth(merged.Size(), merged.ParentSize, 0, pinfo.TotalPopulation, z)
	}
	return rd, nil
}

// --- replicated ingest ---------------------------------------------------

// ReplicaStatus is one replica's outcome within a coordinated ingest or
// roll-out.
type ReplicaStatus struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	// State is "ok", "replayed" (ingest: idempotent duplicate), "not_found"
	// (roll-out: the replica never held the partition), "error" or
	// "breaker_open".
	State string `json:"state"`
	Error string `json:"error,omitempty"`
}

// valuesBody renders values in the text wire format (one per line).
func valuesBody(vals []int64) string {
	var b strings.Builder
	b.Grow(len(vals) * 8)
	for _, v := range vals {
		b.WriteString(strconv.FormatInt(v, 10))
		b.WriteByte('\n')
	}
	return b.String()
}

// replicate runs op on every replica of a chain at once, each through the
// guarded call, and reports each outcome: the state op returns ("ok",
// "replayed", "not_found"), "error" with op's error, or "breaker_open" for a
// peer that was not tried.
func (s *Server) replicate(ctx context.Context, chain []*peer, op func(i int, p *peer) (string, error)) []ReplicaStatus {
	statuses := make([]ReplicaStatus, len(chain))
	var wg sync.WaitGroup
	for i, p := range chain {
		statuses[i] = ReplicaStatus{Shard: p.id, Addr: p.addr}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			st := &statuses[i]
			err := s.cluster.call(ctx, p, func() (err error) {
				st.State, err = op(i, p)
				return err
			})
			if err != nil {
				st.State, st.Error = callState(err), err.Error()
			}
		}(i, p)
	}
	wg.Wait()
	return statuses
}

// handleIngestCluster is the coordinator's ingest path: buffer the batch,
// fan it out to the partition's replica set (journaled locally on each
// replica), and ack once the write quorum is met. A client retry with the
// same Idempotency-Key converges: replicas that already hold the batch
// answer from their registries. Without a client key the coordinator stamps
// one, so its own replica-level retries stay exactly-once.
func (s *Server) handleIngestCluster(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster
	ds, part := r.PathValue("ds"), r.PathValue("part")
	expected, err := parseExpected(r)
	if err != nil {
		return err
	}
	key := r.Header.Get("Idempotency-Key")
	clientKeyed := key != ""
	if clientKeyed {
		if resp, ok := s.idem.get(idemScope(ds, part, key)); ok {
			writeIngest(w, resp, true)
			return nil
		}
	} else {
		key = fmt.Sprintf("swd-auto-%016x", rand.Uint64())
	}
	// Validate as every replica's ingestLocal will, once, before the body is
	// buffered and fanned out: a request they would all refuse (unknown data
	// set, bad partition ID, HB without ?expected=) answers its 4xx here, not
	// a retryable "0 replicas acknowledged" 503. A coordinator that missed the
	// create pulls the definition first, as its own replica leg would.
	_, err = s.wh.NewPartitionSampler(ds, part, expected)
	if errors.Is(err, warehouse.ErrUnknownDataset) && s.healDatasetFromPeers(r.Context(), ds) == nil {
		_, err = s.wh.NewPartitionSampler(ds, part, expected)
	}
	if err != nil {
		return invalidUnlessSentinel(err)
	}

	var vals []int64
	for source := s.scanValues(w, r); ; {
		chunk, err := source()
		if err != nil {
			return err
		}
		if len(chunk) == 0 {
			break
		}
		vals = append(vals, chunk...)
	}
	if len(vals) == 0 {
		return badRequest("ingest %s/%s: no values in body", ds, part)
	}

	chain := c.replicas(ds, part)
	body := valuesBody(vals)
	resps := make([]*IngestResponse, len(chain))
	statuses := s.replicate(r.Context(), chain, func(i int, p *peer) (string, error) {
		var resp IngestResponse
		var replayed bool
		var err error
		if p.self {
			resp, replayed, err = s.ingestLocal(r.Context(), ds, part, expected, key, chunksOf(vals))
		} else {
			c.o.forwards.Inc()
			resp, replayed, err = p.ingest.putPartition(r.Context(), ds, part, expected, key, strings.NewReader(body), true)
		}
		if err != nil {
			return "", err
		}
		resps[i] = &resp
		if replayed {
			return "replayed", nil
		}
		return "ok", nil
	})

	acks := 0
	var template *IngestResponse
	for i, p := range chain {
		if resps[i] != nil {
			acks++
			if template == nil {
				template = resps[i]
			}
		} else if !p.self {
			c.o.forwardErrs.Inc()
		}
	}
	if acks < c.cfg.WriteQuorum || template == nil {
		detail := make([]string, 0, len(statuses))
		for _, st := range statuses {
			if st.Error != "" {
				detail = append(detail, fmt.Sprintf("shard %d: %s", st.Shard, st.Error))
			}
		}
		return &httpError{code: http.StatusServiceUnavailable,
			msg: fmt.Sprintf("ingest %s/%s: %d/%d replicas acknowledged (quorum %d): %s",
				ds, part, acks, len(chain), c.cfg.WriteQuorum, strings.Join(detail, "; "))}
	}
	// Hinted handoff: the write is quorum-acknowledged but some replica
	// missed it — journal a hint per absentee so the batch is delivered
	// (exactly-once, via the same idempotency key) when it recovers.
	s.hintCapture(chain, statuses, ds, part, key, expected, vals, false)
	resp := *template
	resp.Replicas = statuses
	resp.Degraded = acks < len(chain)
	if clientKeyed {
		s.idem.put(idemScope(ds, part, key), resp)
	}
	writeIngest(w, resp, false)
	return nil
}

// broadcastDatasetCreate pushes a freshly created data set to every
// reachable peer so replicas hold the definition before the first forwarded
// ingest. Best-effort: a peer that is down pulls the definition on its first
// miss (healDatasetFromPeers).
func (s *Server) broadcastDatasetCreate(ctx context.Context, req CreateDatasetRequest) {
	c := s.cluster
	bctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range c.peers {
		if p.self {
			continue
		}
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			// A 409 "already exists" is a clean 4xx: healthy, and success
			// enough for a broadcast.
			_ = c.call(bctx, p, func() error { return p.ingest.createDatasetForward(bctx, req) })
		}(p)
	}
	wg.Wait()
}

// notFoundErr classifies a replica roll-out failure as "the replica never
// held the partition" — an idempotent no-op, whether it came back over the
// wire (APIError) or from the local warehouse.
func notFoundErr(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.StatusCode == http.StatusNotFound
	}
	code, _ := errorStatus(err)
	return code == http.StatusNotFound
}

// handleRollOutCluster forwards a partition roll-out to its replica set.
// Roll-out is idempotent, so per-replica 404s are tolerated; the request
// succeeds when at least one replica actually held (and dropped) the
// partition. A replica that was skipped (breaker open) or errored still
// holds its copy; when repair is enabled the coordinator journals a
// tombstone hint that deletes it once the replica recovers (and the sweep
// skips pulling it back while the tombstone is pending). The response still
// carries the per-replica outcomes and a degraded flag — without repair, or
// if the tombstone is lost, callers should retry the roll-out until every
// replica reports ok or not_found.
func (s *Server) handleRollOutCluster(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster
	ds, part := r.PathValue("ds"), r.PathValue("part")
	chain := c.replicas(ds, part)
	statuses := s.replicate(r.Context(), chain, func(_ int, p *peer) (string, error) {
		var err error
		if p.self {
			err = s.rollOutLocal(ds, part)
		} else {
			err = p.ingest.deletePartition(r.Context(), ds, part, true)
		}
		if err != nil && notFoundErr(err) {
			return "not_found", nil
		}
		return "ok", err
	})

	dropped, degraded := 0, false
	firstErr := ""
	for _, st := range statuses {
		switch st.State {
		case "ok":
			dropped++
		case "error", "breaker_open":
			degraded = true
			if firstErr == "" {
				firstErr = fmt.Sprintf("shard %d: %s", st.Shard, st.Error)
			}
		}
	}
	if dropped > 0 && degraded {
		// Tombstone handoff: some replica still holds its copy; hint its
		// deletion so the partition does not resurrect when it rejoins.
		s.hintCapture(chain, statuses, ds, part, "", 0, nil, true)
	}
	if dropped == 0 {
		if firstErr != "" {
			return badGateway("rollout %s/%s: %s", ds, part, firstErr)
		}
		return notFound("partition %s/%s not found", ds, part)
	}
	writeJSON(w, http.StatusOK, RollOutResponse{
		Dataset:   ds,
		Partition: part,
		Status:    "rolled out",
		Replicas:  statuses,
		Degraded:  degraded,
	})
	return nil
}
