package server

import (
	"fmt"
	"sort"
)

// Placement is the cluster's deterministic partition→shard map: a consistent
// hash ring with virtual nodes. Every node of a static-membership cluster
// builds the same ring from the same peer list, so any node can act as the
// coordinator for any request without a metadata service — the placement of
// a partition is a pure function of (peers, replication, key).
//
// Replicas walks the ring clockwise from the key's hash point and returns
// the first `replication` distinct shards: index 0 is the partition's
// primary, the rest are its replicas in failover/hedging preference order.
// Virtual nodes smooth the load split; with the default 64 per shard the
// per-shard partition count stays within a few percent of even at the
// cluster sizes swd targets (2–16 shards).
//
// The ring is immutable after construction and safe for concurrent use.
type Placement struct {
	shards      int
	replication int
	vnodes      int
	points      []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// virtualNodes is how many ring points each shard of a served cluster owns. A
// constant, not configuration: two nodes that disagreed on it would place the
// same partition on different shards and never notice.
const virtualNodes = 64

// NewPlacement builds the ring for a cluster of `shards` shards with the
// given replication factor (clamped to [1, shards]) and virtual-node count
// per shard (0 selects 64).
func NewPlacement(shards, replication, vnodes int) (*Placement, error) {
	if shards < 1 {
		return nil, fmt.Errorf("placement: %d shards, want >= 1", shards)
	}
	if replication < 1 {
		replication = 1
	}
	if replication > shards {
		replication = shards
	}
	if vnodes <= 0 {
		vnodes = virtualNodes
	}
	p := &Placement{
		shards:      shards,
		replication: replication,
		vnodes:      vnodes,
		points:      make([]ringPoint, 0, shards*vnodes),
	}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			h := mix64(hashString(fmt.Sprintf("shard-%d#%d", s, v)))
			p.points = append(p.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(p.points, func(i, j int) bool {
		if p.points[i].hash != p.points[j].hash {
			return p.points[i].hash < p.points[j].hash
		}
		// Ties (vanishingly rare) break by shard so the ring stays identical
		// on every node regardless of sort-internal ordering.
		return p.points[i].shard < p.points[j].shard
	})
	return p, nil
}

// Shards returns the cluster size the ring was built for.
func (p *Placement) Shards() int { return p.shards }

// Replication returns the effective replication factor.
func (p *Placement) Replication() int { return p.replication }

// VirtualNodes returns the virtual-node count per shard.
func (p *Placement) VirtualNodes() int { return p.vnodes }

// Replicas returns the ordered distinct shards responsible for key: the
// primary first, then the failover replicas. The result has exactly
// Replication() entries and is freshly allocated (callers may keep it).
func (p *Placement) Replicas(key string) []int {
	h := mix64(hashString(key))
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= h })
	out := make([]int, 0, p.replication)
	seen := make(map[int]bool, p.replication)
	for n := 0; n < len(p.points) && len(out) < p.replication; n++ {
		pt := p.points[(i+n)%len(p.points)]
		if !seen[pt.shard] {
			seen[pt.shard] = true
			out = append(out, pt.shard)
		}
	}
	return out
}

// Primary returns the first replica for key.
func (p *Placement) Primary(key string) int { return p.Replicas(key)[0] }

// placementKey is the ring key for a partition: dataset-scoped so two data
// sets' identically named partitions spread independently.
func placementKey(dataset, partition string) string { return dataset + "\x00" + partition }

// hashString is FNV-1a 64 over s.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is SplitMix64's finalizer — it decorrelates FNV's low bits so ring
// positions spread uniformly.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
