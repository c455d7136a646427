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

// setStat records a partition's statistics. Caller holds w.mu.
func (w *Warehouse[V]) setStat(ds *dataset, partitionID string, s *core.Sample[V]) {
	if ds.stats == nil {
		ds.stats = make(map[string]PartitionStats)
	}
	ds.stats[partitionID] = statsOf(s)
	w.statGauge()
}

func statsOf[V comparable](s *core.Sample[V]) PartitionStats {
	return PartitionStats{SampleSize: s.Size(), ParentSize: s.ParentSize, Footprint: s.Footprint()}
}

// backfillStat repairs the registry entry of a partition a bounded query
// planned without statistics, from the sample the load stage has in hand, and
// returns the entry. A data set dropped since the query's snapshot is left
// alone.
func (w *Warehouse[V]) backfillStat(dataset, partitionID string, s *core.Sample[V]) PartitionStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	if ds, ok := w.sets[dataset]; ok {
		w.setStat(ds, partitionID, s)
	}
	w.o.statBackfills.Inc()
	return statsOf(s)
}

// dropStat forgets a rolled-out partition's statistics. Caller holds w.mu.
func (w *Warehouse[V]) dropStat(ds *dataset, partitionID string) {
	delete(ds.stats, partitionID)
	w.statGauge()
}

// statGauge mirrors the registry size into warehouse.partition_stats_entries
// so operators can watch registry freshness against the partition gauges.
// Caller holds w.mu.
func (w *Warehouse[V]) statGauge() {
	if w.o.reg == nil {
		return
	}
	var n int64
	for _, ds := range w.sets {
		n += int64(len(ds.stats))
	}
	w.o.reg.Gauge("warehouse.partition_stats_entries").Set(n)
}

// PartitionStatsSnapshot returns a copy of one data set's statistics
// registry, keyed by partition ID. Partitions attached before the registry
// existed are absent until a planned query loads them.
func (w *Warehouse[V]) PartitionStatsSnapshot(dataset string) (map[string]PartitionStats, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ds, ok := w.sets[dataset]
	if !ok {
		return nil, unknownDataset(dataset)
	}
	out := make(map[string]PartitionStats, len(ds.stats))
	for id, st := range ds.stats {
		out[id] = st
	}
	return out, nil
}
