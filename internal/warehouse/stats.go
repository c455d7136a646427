package warehouse

import "samplewh/internal/core"

// PartitionStats is one partition's registry entry: the cheap statistics the
// planner consumes (DESIGN.md §14) without touching the stored sample. They
// are captured at roll-in/attach time — when the sample is already in hand —
// kept in the manifest, and backfilled on the query path for partitions
// attached before the registry existed.
type PartitionStats struct {
	SampleSize int64 `json:"sample_size"`
	ParentSize int64 `json:"parent_size"`
	Footprint  int64 `json:"footprint_bytes"`
}

func statsOf[V comparable](s *core.Sample[V]) PartitionStats {
	return PartitionStats{SampleSize: s.Size(), ParentSize: s.ParentSize, Footprint: s.Footprint()}
}

// PartitionStatsSnapshot returns a copy of one data set's statistics
// registry, keyed by partition ID. Partitions attached before the registry
// existed are absent until a planned query loads them.
func (w *Warehouse[V]) PartitionStatsSnapshot(dataset string) (map[string]PartitionStats, error) {
	return snapshot(w, dataset, func(p *partition) (PartitionStats, bool) { return p.stats, p.known })
}
