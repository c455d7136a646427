package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/wal"
)

// ClusterConfig turns a Server into one shard of a static-membership
// cluster. Every node is given the same peer list and builds the same
// consistent-hash placement, so any node coordinates any request: queries
// scatter to the shards owning the requested partitions and gather their
// local merged samples; ingest fans the batch out to the partition's
// replica set.
type ClusterConfig struct {
	// Peers are the base URLs of every cluster member, self included; the
	// slice index is the shard id. Required, at least one entry.
	Peers []string
	// ShardID is this node's index into Peers. Required.
	ShardID int
	// Replication is how many shards hold each partition (ingest fan-out
	// and query failover width). Clamped to [1, len(Peers)]. Default 1.
	Replication int
	// WriteQuorum is how many replica acknowledgments an ingest needs
	// before the coordinator acks the client, at most Replication. 0
	// selects a majority of the replication factor (N/2+1).
	WriteQuorum int

	// HedgeInitial is the hedge delay used before a peer has enough
	// latency observations. Default 50ms.
	HedgeInitial time.Duration

	// BreakerOpen is how long an open per-peer circuit breaker rejects
	// before letting a half-open probe through. Default 2s.
	BreakerOpen time.Duration

	// HTTPClient, when non-nil, builds the HTTP client used for one peer —
	// the hook where tests plug fault-injecting transports
	// (faults.NewTransport). Nil uses a shared default client.
	HTTPClient func(shard int, addr string) *http.Client

	// RepairInterval is the anti-entropy sweep period and the one switch
	// for the self-healing subsystem (repair.go): 0 (the default) disables
	// sweeps, hinted handoff and read repair entirely — no background
	// goroutines start. cmd/swd defaults it to 30s.
	RepairInterval time.Duration
	// Hints, when non-nil, is the durable hinted-handoff journal (a
	// dedicated WAL, separate from the ingest journal): hints survive a
	// coordinator crash and are re-seeded via Server.SeedHints. Nil keeps
	// hints in memory only — still replayed, lost on crash (the
	// anti-entropy sweep is the backstop).
	Hints *wal.Log[int64]
}

// coordinatorSeed seeds the coordinator's merge randomness, with the data
// set's name hashed in.
const coordinatorSeed = 0x535744

func (c ClusterConfig) normalized() (ClusterConfig, error) {
	if len(c.Peers) == 0 {
		return c, fmt.Errorf("cluster: no peers")
	}
	if c.ShardID < 0 || c.ShardID >= len(c.Peers) {
		return c, fmt.Errorf("cluster: shard id %d outside peer list of %d", c.ShardID, len(c.Peers))
	}
	if c.Replication < 1 {
		c.Replication = 1
	}
	if c.Replication > len(c.Peers) {
		c.Replication = len(c.Peers)
	}
	if c.WriteQuorum > c.Replication {
		return c, fmt.Errorf("cluster: write quorum %d exceeds replication %d", c.WriteQuorum, c.Replication)
	}
	if c.WriteQuorum <= 0 {
		c.WriteQuorum = c.Replication/2 + 1
	}
	if c.HedgeInitial <= 0 {
		c.HedgeInitial = 50 * time.Millisecond
	}
	if c.BreakerOpen <= 0 {
		c.BreakerOpen = 2 * time.Second
	}
	return c, nil
}

// clusterObs bundles the coordinator's metric handles:
//
//	cluster.scatter          scatter-gather queries coordinated (counter)
//	cluster.scatter_groups   per-shard fetches issued (counter)
//	cluster.hedged           hedged duplicates fired (counter)
//	cluster.hedge_wins       hedged duplicates that answered first (counter)
//	cluster.failovers        replica failovers after an attempt failed (counter)
//	cluster.breaker_skips    attempts skipped because a breaker was open (counter)
//	cluster.degraded         answers returned with partial coverage (counter)
//	cluster.forwards         replica ingest forwards issued (counter)
//	cluster.forward_errors   replica ingest forwards that failed (counter)
//	cluster.peer_latency_ns  successful peer request latency (histogram)
type clusterObs struct {
	scatter      *obs.Counter
	groups       *obs.Counter
	hedged       *obs.Counter
	hedgeWins    *obs.Counter
	failovers    *obs.Counter
	breakerSkips *obs.Counter
	degraded     *obs.Counter
	forwards     *obs.Counter
	forwardErrs  *obs.Counter
	peerLatency  *obs.Histogram
}

func newClusterObs(reg *obs.Registry) clusterObs {
	return clusterObs{
		scatter:      reg.Counter("cluster.scatter"),
		groups:       reg.Counter("cluster.scatter_groups"),
		hedged:       reg.Counter("cluster.hedged"),
		hedgeWins:    reg.Counter("cluster.hedge_wins"),
		failovers:    reg.Counter("cluster.failovers"),
		breakerSkips: reg.Counter("cluster.breaker_skips"),
		degraded:     reg.Counter("cluster.degraded"),
		forwards:     reg.Counter("cluster.forwards"),
		forwardErrs:  reg.Counter("cluster.forward_errors"),
		peerLatency:  reg.Histogram("cluster.peer_latency_ns"),
	}
}

// clusterState is the node's view of the cluster: the placement ring and one
// peer handle (client + breaker + latency window) per member.
type clusterState struct {
	cfg   ClusterConfig
	place *Placement
	peers []*peer
	o     clusterObs
	// repair is non-nil when RepairInterval > 0: the self-healing subsystem
	// (anti-entropy sweeps, hinted handoff, read repair).
	repair *repairState
}

// EnableCluster switches the server into cluster mode. Call it after New and
// before serving traffic; it is not safe to call concurrently with requests.
func (s *Server) EnableCluster(cfg ClusterConfig) error {
	cfg, err := cfg.normalized()
	if err != nil {
		return err
	}
	place, err := NewPlacement(len(cfg.Peers), cfg.Replication, virtualNodes)
	if err != nil {
		return err
	}
	shared := &http.Client{}
	peers := make([]*peer, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		httpc := shared
		if cfg.HTTPClient != nil {
			if c := cfg.HTTPClient(i, addr); c != nil {
				httpc = c
			}
		}
		peers[i] = newPeer(i, addr, i == cfg.ShardID, cfg.BreakerOpen, httpc)
	}
	s.cluster = &clusterState{
		cfg:   cfg,
		place: place,
		peers: peers,
		o:     newClusterObs(s.o.reg),
	}
	if cfg.RepairInterval > 0 {
		s.startRepair(cfg)
	}
	return nil
}

// Cluster reports whether the server runs in cluster mode.
func (s *Server) Cluster() bool { return s.cluster != nil }

// replicas returns the peer handles responsible for a partition, in
// placement (failover) order.
func (c *clusterState) replicas(dataset, partition string) []*peer {
	ids := c.place.Replicas(placementKey(dataset, partition))
	out := make([]*peer, len(ids))
	for i, id := range ids {
		out[i] = c.peers[id]
	}
	return out
}

// PeerStatus is one cluster member's state as seen from the answering node:
// GET /clusterz.
type PeerStatus struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr"`
	Self    bool   `json:"self,omitempty"`
	Breaker string `json:"breaker"`
	// Ready is the peer's live /readyz answer (self answers locally);
	// Error carries the probe failure when unreachable.
	Ready bool   `json:"ready"`
	Error string `json:"error,omitempty"`
	// LatencyP95NS is the peer's observed p95 request latency (0 until
	// enough observations exist); HedgeDelayNS is the duplicate-request
	// threshold currently derived from it.
	LatencyP95NS int64 `json:"latency_p95_ns,omitempty"`
	HedgeDelayNS int64 `json:"hedge_delay_ns,omitempty"`
}

// DatasetPlacement summarizes where one data set's locally known partitions
// land on the ring: PrimaryCounts[i] is how many have shard i as primary.
type DatasetPlacement struct {
	Dataset       string `json:"dataset"`
	Partitions    int    `json:"partitions"`
	PrimaryCounts []int  `json:"primary_counts"`
}

// ClusterStatusResponse is the GET /clusterz body.
type ClusterStatusResponse struct {
	ShardID      int                `json:"shard_id"`
	Shards       int                `json:"shards"`
	Replication  int                `json:"replication"`
	WriteQuorum  int                `json:"write_quorum"`
	VirtualNodes int                `json:"virtual_nodes"`
	Peers        []PeerStatus       `json:"peers"`
	Placement    []DatasetPlacement `json:"placement,omitempty"`
	// Repair is the self-healing subsystem's progress; absent when repair
	// is disabled (RepairInterval 0).
	Repair *RepairStatus `json:"repair,omitempty"`
}

// handleClusterz is GET /clusterz: per-peer readiness (live-probed), breaker
// state and hedge thresholds, plus a placement summary over the locally
// known partitions. It bypasses admission control — it must answer while
// the serving classes are saturated or the node is booting.
func (s *Server) handleClusterz(w http.ResponseWriter, r *http.Request) {
	c := s.cluster
	if c == nil {
		writeError(w, http.StatusNotFound, "not in cluster mode")
		return
	}
	resp := ClusterStatusResponse{
		ShardID:      c.cfg.ShardID,
		Shards:       len(c.peers),
		Replication:  c.cfg.Replication,
		WriteQuorum:  c.cfg.WriteQuorum,
		VirtualNodes: c.place.VirtualNodes(),
		Peers:        make([]PeerStatus, len(c.peers)),
		Repair:       s.repairStatus(),
	}
	ctx, cancel := context.WithTimeout(r.Context(), 500*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	for i, p := range c.peers {
		st := PeerStatus{Shard: p.id, Addr: p.addr, Self: p.self, Breaker: p.br.State().String()}
		if p95, ok := p.lat.quantile(0.95); ok {
			st.LatencyP95NS = p95
		}
		st.HedgeDelayNS = int64(p.hedgeDelay(c.cfg.HedgeInitial))
		if p.self {
			st.Ready = s.ReadyState() && !s.Draining()
			resp.Peers[i] = st
			continue
		}
		resp.Peers[i] = st
		wg.Add(1)
		go func(i int, p *peer) {
			defer wg.Done()
			if err := p.query.ReadyCheck(ctx); err != nil {
				resp.Peers[i].Error = err.Error()
				return
			}
			resp.Peers[i].Ready = true
		}(i, p)
	}
	wg.Wait()

	for _, ds := range s.wh.Datasets() {
		parts, err := s.wh.Partitions(ds)
		if err != nil {
			continue
		}
		dp := DatasetPlacement{Dataset: ds, Partitions: len(parts), PrimaryCounts: make([]int, len(c.peers))}
		for _, part := range parts {
			dp.PrimaryCounts[c.place.Primary(placementKey(ds, part))]++
		}
		resp.Placement = append(resp.Placement, dp)
	}
	writeJSON(w, http.StatusOK, resp)
}
