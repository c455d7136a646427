package server

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/sketch"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// This file is the self-healing half of cluster mode (DESIGN.md §16): the
// scatter/quorum paths in coordinator.go keep answers available while
// replicas fail, and the repair subsystem here makes the replica set
// converge back afterwards. Three mechanisms share the machinery:
//
//   - Anti-entropy sweeps: every RepairInterval the node pulls each peer's
//     partition inventory digest (content hashes from /antientropy/digest),
//     diffs it against its own, and pulls any partition it should hold but
//     is missing or holds stale — raw stored bytes plus sketch sidecar over
//     /antientropy/partition, adopted verbatim so replicas converge to
//     byte-identical state.
//   - Hinted handoff: a quorum write that left a replica behind (down or
//     breaker-open) journals a hint; hints replay to the target once its
//     breaker admits traffic again, exactly-once via the original
//     Idempotency-Key. Roll-outs hint tombstones the same way so a dead
//     replica's copy is deleted — not resurrected — when it rejoins.
//   - Read repair: a degraded query answer names the partitions it could
//     not cover; each is queued for targeted repair so the partitions
//     clients actually read converge first, ahead of the next full sweep.

// DigestResponse is the GET /antientropy/digest body: this shard's partition
// inventory as dataset → partition → content hash. An empty hash means the
// partition is present but its store cannot produce stored bytes to hash
// (presence-only comparison).
type DigestResponse struct {
	ShardID  int                          `json:"shard_id"`
	Datasets map[string]map[string]string `json:"datasets"`
}

// PartitionTransferResponse is the GET /antientropy/partition body: one
// partition's raw stored sample bytes (base64 on the wire) plus its sketch
// sidecar, exactly as the source shard holds them. The receiver adopts the
// bytes verbatim, so a pull ends with both replicas bit-identical.
type PartitionTransferResponse struct {
	Dataset   string          `json:"dataset"`
	Partition string          `json:"partition"`
	Hash      string          `json:"hash"`
	Raw       []byte          `json:"raw"`
	Sketch    *sketch.Summary `json:"sketch,omitempty"`
}

// RepairStatus is the repair section of GET /clusterz: sweep progress,
// hinted-handoff backlog and read-repair queue depth — the numbers an
// operator (or the chaos drill) watches to decide a rejoined replica has
// converged.
type RepairStatus struct {
	IntervalNS          int64 `json:"interval_ns"`
	Sweeps              int64 `json:"sweeps"`
	LastSweepUnixNS     int64 `json:"last_sweep_unix_ns,omitempty"`
	LastSweepDurationNS int64 `json:"last_sweep_duration_ns,omitempty"`
	Pulls               int64 `json:"pulls"`
	PullErrors          int64 `json:"pull_errors"`
	HintsPending        int   `json:"hints_pending"`
	HintsReplayed       int64 `json:"hints_replayed"`
	HintsDropped        int64 `json:"hints_dropped"`
	ReadRepair          bool  `json:"read_repair"`
	ReadRepairBacklog   int   `json:"read_repair_backlog"`
}

// repairObs bundles the repair subsystem's metric handles.
//
//	repair.sweeps               anti-entropy sweeps completed (counter)
//	repair.pulls                partitions pulled from a peer (counter)
//	repair.pull_errors          pulls that failed (counter)
//	repair.hints_queued         hinted-handoff writes journaled (counter)
//	repair.hints_replayed       hints delivered to their target (counter)
//	repair.hints_dropped        hints lost to overflow or permanent rejection (counter)
//	repair.hints_pending        hints currently awaiting replay (gauge)
//	repair.read_repairs         targeted repairs triggered by degraded answers (counter)
//	repair.read_repair_dropped  read-repair targets dropped (queue full) (counter)
//	repair.read_repair_backlog  read-repair targets queued (gauge)
//	repair.last_sweep_unix      completion time of the last sweep (gauge, seconds)
//	repair.sweep_ns             sweep duration (histogram)
type repairObs struct {
	sweeps        *obs.Counter
	pulls         *obs.Counter
	pullErrors    *obs.Counter
	hintsQueued   *obs.Counter
	hintsReplayed *obs.Counter
	hintsDropped  *obs.Counter
	hintsPending  *obs.Gauge
	readRepairs   *obs.Counter
	rrDropped     *obs.Counter
	rrBacklog     *obs.Gauge
	lastSweep     *obs.Gauge
	sweepNS       *obs.Histogram
}

func newRepairObs(reg *obs.Registry) repairObs {
	return repairObs{
		sweeps:        reg.Counter("repair.sweeps"),
		pulls:         reg.Counter("repair.pulls"),
		pullErrors:    reg.Counter("repair.pull_errors"),
		hintsQueued:   reg.Counter("repair.hints_queued"),
		hintsReplayed: reg.Counter("repair.hints_replayed"),
		hintsDropped:  reg.Counter("repair.hints_dropped"),
		hintsPending:  reg.Gauge("repair.hints_pending"),
		readRepairs:   reg.Counter("repair.read_repairs"),
		rrDropped:     reg.Counter("repair.read_repair_dropped"),
		rrBacklog:     reg.Gauge("repair.read_repair_backlog"),
		lastSweep:     reg.Gauge("repair.last_sweep_unix"),
		sweepNS:       reg.Histogram("repair.sweep_ns"),
	}
}

// hint is one write a quorum-acknowledged request could not deliver to one
// replica: replayed to the target shard when its breaker admits traffic
// again. A tombstone hint records an undelivered roll-out.
type hint struct {
	// id is the hints-journal entry ID; journaled is false when the hint
	// lives only in memory (no hints journal configured, or its append
	// failed — still replayable for this process's lifetime).
	id        uint64
	journaled bool

	shard     int
	ds, part  string
	key       string
	expected  int64
	vals      []int64
	tombstone bool
}

// repairTarget is one (dataset, partition) queued for targeted read repair.
type repairTarget struct{ ds, part string }

// hintPartition packs the target shard into the hints journal's partition
// field, so the generic WAL frames need no schema change.
func hintPartition(shard int, part string) string {
	return strconv.Itoa(shard) + "\x00" + part
}

// unpackHintPartition inverts hintPartition.
func unpackHintPartition(packed string) (shard int, part string, ok bool) {
	shardStr, part, found := strings.Cut(packed, "\x00")
	if !found {
		return 0, "", false
	}
	shard, err := strconv.Atoi(shardStr)
	if err != nil || shard < 0 {
		return 0, "", false
	}
	return shard, part, true
}

// tombstoneExpected marks a tombstone hint in the journal's expected field
// (live ingests never journal a negative expected size).
const tombstoneExpected = -1

// maxPendingHints bounds the hint queue; over it new hints are dropped and
// counted (repair.hints_dropped), and the anti-entropy sweep covers them.
const maxPendingHints = 4096

// hintReplayEvery is how often pending hinted-handoff writes attempt
// delivery — much faster than the sweep so a recovered replica catches up as
// soon as its breaker half-opens.
const hintReplayEvery = time.Second

// repairState is the per-node repair machinery: the pending hint queue, the
// read-repair channel and the background loop's lifecycle.
type repairState struct {
	interval time.Duration
	hlog     *wal.Log[int64]
	o        repairObs

	mu     sync.Mutex
	hints  []*hint
	queued map[repairTarget]bool // read-repair dedup: targets currently in rrCh

	rrCh chan repairTarget

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	sweeps          atomic.Int64
	lastSweepUnixNS atomic.Int64
	lastSweepDurNS  atomic.Int64
}

func newRepairState(cfg ClusterConfig, reg *obs.Registry) *repairState {
	return &repairState{
		interval: cfg.RepairInterval,
		hlog:     cfg.Hints,
		o:        newRepairObs(reg),
		queued:   make(map[repairTarget]bool),
		rrCh:     make(chan repairTarget, 256),
		stop:     make(chan struct{}),
	}
}

// --- hinted handoff ------------------------------------------------------

// addHint queues (and journals, when a hints journal is configured) one
// undelivered replica write. Over the pending bound the hint is dropped and
// counted — anti-entropy sweeps are the backstop for dropped hints.
func (rp *repairState) addHint(shard int, ds, part, key string, expected int64, vals []int64, tombstone bool) {
	rp.mu.Lock()
	if len(rp.hints) >= maxPendingHints {
		rp.mu.Unlock()
		rp.o.hintsDropped.Inc()
		return
	}
	h := &hint{shard: shard, ds: ds, part: part, key: key, expected: expected, vals: vals, tombstone: tombstone}
	if rp.hlog != nil {
		exp := expected
		if tombstone {
			exp = tombstoneExpected
		}
		e, err := rp.hlog.Begin(ds, hintPartition(shard, part), key, exp)
		if err == nil && len(vals) > 0 {
			err = e.Append(vals)
		}
		if err == nil {
			err = e.Seal(int64(len(vals)))
		}
		if err == nil {
			h.id, h.journaled = e.ID(), true
		} else if e != nil {
			e.Abort()
		}
	}
	rp.hints = append(rp.hints, h)
	pending := len(rp.hints)
	rp.mu.Unlock()
	rp.o.hintsQueued.Inc()
	rp.o.hintsPending.Set(int64(pending))
}

// seedHints restores the pending hint queue from hints-journal recovery:
// hints journaled before a crash replay after the restart, so a dead
// replica's catch-up writes survive the coordinator dying too.
func (rp *repairState) seedHints(entries []wal.RecoveredEntry[int64]) {
	rp.mu.Lock()
	var commit []uint64
	for _, re := range entries {
		shard, part, ok := unpackHintPartition(re.Partition)
		if !ok || len(rp.hints) >= maxPendingHints {
			commit = append(commit, re.ID)
			rp.o.hintsDropped.Inc()
			continue
		}
		h := &hint{id: re.ID, journaled: true, shard: shard, ds: re.Dataset, part: part,
			key: re.Key, expected: re.Expected, vals: re.Values}
		if re.Expected == tombstoneExpected {
			h.tombstone, h.expected, h.vals = true, 0, nil
		}
		rp.hints = append(rp.hints, h)
	}
	pending := len(rp.hints)
	rp.mu.Unlock()
	for _, id := range commit {
		_ = rp.hlog.CommitRecovered(id)
	}
	rp.o.hintsPending.Set(int64(pending))
}

// finishHint retires a hint: removed from the pending queue and committed in
// the hints journal so it never replays again.
func (rp *repairState) finishHint(h *hint) {
	rp.mu.Lock()
	for i, cand := range rp.hints {
		if cand == h {
			rp.hints = append(rp.hints[:i], rp.hints[i+1:]...)
			break
		}
	}
	pending := len(rp.hints)
	rp.mu.Unlock()
	if h.journaled {
		_ = rp.hlog.CommitRecovered(h.id)
	}
	rp.o.hintsPending.Set(int64(pending))
}

// pendingHints snapshots the queue grouped by target shard, preserving
// arrival order within each shard.
func (rp *repairState) pendingHints() map[int][]*hint {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	out := make(map[int][]*hint)
	for _, h := range rp.hints {
		out[h.shard] = append(out[h.shard], h)
	}
	return out
}

// pendingTombstone reports whether an undelivered roll-out for ds/part is
// still queued — the sweep must not pull that partition back from a replica
// the tombstone has not reached yet.
func (rp *repairState) pendingTombstone(ds, part string) bool {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for _, h := range rp.hints {
		if h.tombstone && h.ds == ds && h.part == part {
			return true
		}
	}
	return false
}

// PendingHints returns how many hinted-handoff writes await replay.
func (s *Server) PendingHints() int {
	c := s.cluster
	if c == nil || c.repair == nil {
		return 0
	}
	c.repair.mu.Lock()
	defer c.repair.mu.Unlock()
	return len(c.repair.hints)
}

// hintCapture journals hints for the replicas a quorum-acknowledged write
// left behind. statuses and chain are parallel; only "error" and
// "breaker_open" outcomes hint (a "not_found" roll-out or "replayed" ingest
// already converged).
func (s *Server) hintCapture(chain []*peer, statuses []ReplicaStatus, ds, part, key string, expected int64, vals []int64, tombstone bool) {
	rp := s.cluster.repair
	if rp == nil {
		return
	}
	for i, p := range chain {
		if p.self {
			continue
		}
		if st := statuses[i].State; st == "error" || st == "breaker_open" {
			rp.addHint(p.id, ds, part, key, expected, vals, tombstone)
		}
	}
}

// replayHints attempts delivery of every pending hint, each through the
// guarded call. Within one shard hints replay in arrival order; a refused
// call or a transport failure stops that shard's drain until the next tick
// (the target is still down), while a clean 4xx rejection drops the hint —
// the target is alive and will never accept it. A target that never heard of
// the hint's data set heals itself before it reads the batch
// (healDatasetFromPeers).
func (s *Server) replayHints(ctx context.Context) {
	c := s.cluster
	rp := c.repair
	byShard := rp.pendingHints()
	shards := make([]int, 0, len(byShard))
	for id := range byShard {
		shards = append(shards, id)
	}
	sort.Ints(shards)
	for _, id := range shards {
		if id >= len(c.peers) || c.peers[id].self {
			for _, h := range byShard[id] {
				rp.finishHint(h)
				rp.o.hintsDropped.Inc()
			}
			continue
		}
		p := c.peers[id]
	drain:
		for _, h := range byShard[id] {
			if ctx.Err() != nil {
				return
			}
			err := c.call(ctx, p, func() error {
				if h.tombstone {
					err := p.ingest.deletePartition(ctx, h.ds, h.part, true)
					if err != nil && notFoundErr(err) {
						return nil // the target never held it; converged
					}
					return err
				}
				_, _, err := p.ingest.putPartition(ctx, h.ds, h.part, h.expected, h.key,
					strings.NewReader(valuesBody(h.vals)), true)
				return err
			})
			switch {
			case err == nil:
				rp.finishHint(h)
				rp.o.hintsReplayed.Inc()
			case peerHealthy(err):
				// The target is up and rejected the write outright (bad
				// request, unknown partition scheme...): replaying the same
				// bytes can never succeed, so the hint is dead.
				rp.finishHint(h)
				rp.o.hintsDropped.Inc()
			default:
				break drain
			}
		}
	}
}

// --- anti-entropy sweep --------------------------------------------------

// localInventory builds this shard's digest: dataset → partition → content
// hash for every attached partition.
func (s *Server) localInventory() map[string]map[string]string {
	out := make(map[string]map[string]string)
	for _, ds := range s.wh.Datasets() {
		hashes, err := s.wh.PartitionHashes(ds)
		if err != nil {
			continue
		}
		out[ds] = hashes
	}
	return out
}

// handleAntiEntropyDigest is GET /antientropy/digest[?ds=name]: the shard's
// partition inventory, optionally scoped to one data set.
func (s *Server) handleAntiEntropyDigest(w http.ResponseWriter, r *http.Request) error {
	if s.cluster == nil {
		return notFound("not in cluster mode")
	}
	inv := s.localInventory()
	if ds := r.URL.Query().Get("ds"); ds != "" {
		scoped := make(map[string]map[string]string, 1)
		if hashes, ok := inv[ds]; ok {
			scoped[ds] = hashes
		}
		inv = scoped
	}
	writeJSON(w, http.StatusOK, DigestResponse{ShardID: s.cluster.cfg.ShardID, Datasets: inv})
	return nil
}

// handleAntiEntropyPartition is GET /antientropy/partition?ds=&part=: the
// streaming partition-transfer source, serving the raw stored bytes plus
// sketch sidecar of one local partition.
func (s *Server) handleAntiEntropyPartition(w http.ResponseWriter, r *http.Request) error {
	ds, part := r.URL.Query().Get("ds"), r.URL.Query().Get("part")
	if ds == "" || part == "" {
		return badRequest("antientropy/partition: ds and part are required")
	}
	t, err := s.wh.ExportPartition(ds, part)
	if err != nil {
		return err // NotFoundError maps to 404 via errorStatus
	}
	writeJSON(w, http.StatusOK, PartitionTransferResponse{
		Dataset: ds, Partition: part, Hash: t.Hash, Raw: t.Raw, Sketch: t.Sketch,
	})
	return nil
}

// handleAntiEntropyNudge is POST /antientropy/nudge?ds=&part=: a peer's
// read-repair signal that this shard's copy of a partition may be missing
// or stale. The target is queued for targeted repair; 202 means queued.
func (s *Server) handleAntiEntropyNudge(w http.ResponseWriter, r *http.Request) error {
	c := s.cluster
	if c == nil || c.repair == nil {
		return notFound("repair disabled")
	}
	ds, part := r.URL.Query().Get("ds"), r.URL.Query().Get("part")
	if ds == "" || part == "" {
		return badRequest("antientropy/nudge: ds and part are required")
	}
	queued := c.repair.enqueueReadRepair(ds, part)
	writeJSON(w, http.StatusAccepted, map[string]bool{"queued": queued})
	return nil
}

// pullPartition fetches one partition's raw bytes from a peer and adopts
// them locally, healing a missed dataset-create on the way. The adopted
// bytes are verbatim, so after the pull this replica's copy is
// byte-identical to the source's.
func (s *Server) pullPartition(ctx context.Context, p *peer, ds, part string) error {
	rp := s.cluster.repair
	var t PartitionTransferResponse
	err := s.cluster.call(ctx, p, func() (err error) {
		t, err = p.query.PullPartition(ctx, ds, part)
		return err
	})
	if err != nil {
		if !errors.Is(err, errBreakerOpen) { // a refused pull was never attempted
			rp.o.pullErrors.Inc()
		}
		return fmt.Errorf("pull %s/%s from shard %d: %w", ds, part, p.id, err)
	}
	err = s.wh.AdoptPartition(ds, part, t.Raw, t.Sketch)
	if errors.Is(err, warehouse.ErrUnknownDataset) {
		if herr := s.healDatasetFromPeers(ctx, ds); herr == nil {
			err = s.wh.AdoptPartition(ds, part, t.Raw, t.Sketch)
		}
	}
	if err != nil {
		rp.o.pullErrors.Inc()
		return fmt.Errorf("adopt %s/%s: %w", ds, part, err)
	}
	rp.o.pulls.Inc()
	return nil
}

// needPull decides whether the local copy must be replaced by the
// authority's: missing entirely, or both sides hash their bytes and the
// hashes disagree. Presence-only entries (empty hash) compare by presence.
func needPull(localHash string, localHas bool, wantHash string) bool {
	if !localHas {
		return true
	}
	return wantHash != "" && localHash != "" && localHash != wantHash
}

// repairPartition is the one repair decision (DESIGN.md §16), shared by the
// sweep and read repair. Unless this shard is outside the partition's replica
// chain (member reports that) or a tombstone for the partition is pending —
// an undelivered roll-out must not be pulled back — it walks the chain in
// placement order: the first member whose digest lists the partition is the
// authority, so every replica converges toward one copy's bytes. Its copy is
// pulled when needPull says the local one is missing or stale. digestOf
// returns a chain member's partition → hash inventory for ds, nil when the
// member could not be asked.
func (s *Server) repairPartition(ctx context.Context, ds, part string, digestOf func(*peer) map[string]string) (member bool, err error) {
	c := s.cluster
	chain := c.replicas(ds, part)
	self := slices.IndexFunc(chain, func(p *peer) bool { return p.self })
	if self < 0 {
		return false, nil
	}
	if c.repair.pendingTombstone(ds, part) {
		return true, nil
	}
	localHash, localHas := digestOf(chain[self])[part]
	for _, p := range chain {
		if p.self {
			if localHas {
				return true, nil
			}
			continue
		}
		wantHash, has := digestOf(p)[part]
		if !has {
			continue
		}
		if needPull(localHash, localHas, wantHash) {
			err = s.pullPartition(ctx, p, ds, part)
		}
		return true, err
	}
	return true, nil
}

// repairSweep runs one full anti-entropy pass: gather every reachable
// peer's digest, union the inventories, and put every partition any of them
// lists through repairPartition against those prefetched digests.
func (s *Server) repairSweep(ctx context.Context) error {
	c := s.cluster
	rp := c.repair
	start := time.Now()

	digests := make([]map[string]map[string]string, len(c.peers))
	var wg sync.WaitGroup
	for i, p := range c.peers {
		if p.self {
			digests[i] = s.localInventory()
			continue
		}
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			var d DigestResponse
			err := c.call(ctx, p, func() (err error) {
				d, err = p.query.Digest(ctx, "")
				return err
			})
			if err == nil {
				digests[i] = d.Datasets
			}
		}(i, p)
	}
	wg.Wait()

	seen := make(map[repairTarget]bool)
	var targets []repairTarget
	for _, d := range digests {
		for ds, parts := range d {
			for part := range parts {
				if t := (repairTarget{ds, part}); !seen[t] {
					seen[t] = true
					targets = append(targets, t)
				}
			}
		}
	}
	slices.SortFunc(targets, func(a, b repairTarget) int {
		return cmp.Or(strings.Compare(a.ds, b.ds), strings.Compare(a.part, b.part))
	})

	var firstErr error
	for _, t := range targets {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		prefetched := func(p *peer) map[string]string { return digests[p.id][t.ds] }
		if _, err := s.repairPartition(ctx, t.ds, t.part, prefetched); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	rp.sweeps.Add(1)
	rp.o.sweeps.Inc()
	now := time.Now()
	rp.lastSweepUnixNS.Store(now.UnixNano())
	dur := now.Sub(start)
	rp.lastSweepDurNS.Store(dur.Nanoseconds())
	rp.o.lastSweep.Set(now.Unix())
	rp.o.sweepNS.Observe(dur.Nanoseconds())
	return firstErr
}

// --- read repair ---------------------------------------------------------

// enqueueReadRepair queues one partition for targeted repair; duplicate
// targets collapse while queued, and a full queue drops the target (the
// next sweep covers it) rather than blocking the query path.
func (rp *repairState) enqueueReadRepair(ds, part string) bool {
	t := repairTarget{ds: ds, part: part}
	rp.mu.Lock()
	if rp.queued[t] {
		rp.mu.Unlock()
		return true
	}
	rp.queued[t] = true
	rp.mu.Unlock()
	select {
	case rp.rrCh <- t:
		rp.o.rrBacklog.Set(int64(len(rp.rrCh)))
		return true
	default:
		rp.mu.Lock()
		delete(rp.queued, t)
		rp.mu.Unlock()
		rp.o.rrDropped.Inc()
		return false
	}
}

// noteDegradedCoverage feeds a degraded answer's uncovered partitions into
// the read-repair queue — the partitions clients actually read converge
// first, ahead of the next full sweep.
func (s *Server) noteDegradedCoverage(ds string, skipped []SkippedPartition) {
	c := s.cluster
	if c == nil || c.repair == nil {
		return
	}
	for _, sk := range skipped {
		c.repair.enqueueReadRepair(ds, sk.ID)
	}
}

// readRepairLoop drains the read-repair queue, one targeted repair at a
// time.
func (s *Server) readRepairLoop() {
	rp := s.cluster.repair
	defer rp.wg.Done()
	for {
		select {
		case <-rp.stop:
			return
		case t := <-rp.rrCh:
			rp.mu.Lock()
			delete(rp.queued, t)
			rp.mu.Unlock()
			rp.o.rrBacklog.Set(int64(len(rp.rrCh)))
			if !s.ReadyState() || s.Draining() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			s.targetedRepair(ctx, t.ds, t.part)
			cancel()
		}
	}
}

// targetedRepair is read repair for one partition: repairPartition against
// digests fetched from the chain on demand when this shard is a chain member;
// otherwise a nudge to the first reachable member to repair itself.
func (s *Server) targetedRepair(ctx context.Context, ds, part string) {
	c := s.cluster
	c.repair.o.readRepairs.Inc()
	fetched := func(p *peer) map[string]string {
		if p.self {
			hashes, _ := s.wh.PartitionHashes(ds)
			return hashes
		}
		var d DigestResponse
		_ = c.call(ctx, p, func() (err error) { // a member that cannot answer lists nothing
			d, err = p.query.Digest(ctx, ds)
			return err
		})
		return d.Datasets[ds]
	}
	if member, _ := s.repairPartition(ctx, ds, part, fetched); member {
		return
	}
	for _, p := range c.replicas(ds, part) {
		if c.call(ctx, p, func() error { return p.query.NudgeRepair(ctx, ds, part) }) == nil {
			return
		}
	}
}

// --- lifecycle -----------------------------------------------------------

// repairLoop is the background schedule: full sweeps every RepairInterval,
// hint-replay attempts every hintReplayEvery.
func (s *Server) repairLoop() {
	rp := s.cluster.repair
	defer rp.wg.Done()
	sweep := time.NewTicker(rp.interval)
	defer sweep.Stop()
	hints := time.NewTicker(hintReplayEvery)
	defer hints.Stop()
	budget := 2 * rp.interval
	if budget < 5*time.Second {
		budget = 5 * time.Second
	}
	for {
		select {
		case <-rp.stop:
			return
		case <-sweep.C:
			if !s.ReadyState() || s.Draining() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), budget)
			s.replayHints(ctx) // tombstones must land before the sweep diff
			_ = s.repairSweep(ctx)
			cancel()
		case <-hints.C:
			if !s.ReadyState() || s.Draining() {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			s.replayHints(ctx)
			cancel()
		}
	}
}

// startRepair builds the repair state and launches its background
// goroutines. Called from EnableCluster when RepairInterval > 0.
func (s *Server) startRepair(cfg ClusterConfig) {
	rp := newRepairState(cfg, s.o.reg)
	s.cluster.repair = rp
	rp.wg.Add(2)
	go s.repairLoop()
	go s.readRepairLoop()
}

// StopRepair stops the repair goroutines and waits for them to exit. Safe
// to call multiple times, and a no-op when repair never started; call it
// before closing the hints journal on shutdown.
func (s *Server) StopRepair() {
	c := s.cluster
	if c == nil || c.repair == nil {
		return
	}
	c.repair.stopOnce.Do(func() { close(c.repair.stop) })
	c.repair.wg.Wait()
}

// SeedHints primes the hinted-handoff queue from hints-journal recovery.
// Call after EnableCluster and before serving traffic.
func (s *Server) SeedHints(entries []wal.RecoveredEntry[int64]) {
	c := s.cluster
	if c == nil || c.repair == nil || len(entries) == 0 {
		return
	}
	c.repair.seedHints(entries)
}

// repairStatus builds the /clusterz repair section; nil when repair is
// disabled.
func (s *Server) repairStatus() *RepairStatus {
	c := s.cluster
	if c == nil || c.repair == nil {
		return nil
	}
	rp := c.repair
	return &RepairStatus{
		IntervalNS:          rp.interval.Nanoseconds(),
		Sweeps:              rp.sweeps.Load(),
		LastSweepUnixNS:     rp.lastSweepUnixNS.Load(),
		LastSweepDurationNS: rp.lastSweepDurNS.Load(),
		Pulls:               rp.o.pulls.Value(),
		PullErrors:          rp.o.pullErrors.Value(),
		HintsPending:        s.PendingHints(),
		HintsReplayed:       rp.o.hintsReplayed.Value(),
		HintsDropped:        rp.o.hintsDropped.Value(),
		ReadRepair:          true,
		ReadRepairBacklog:   len(rp.rrCh),
	}
}
