package warehouse

import (
	"cmp"
	"fmt"

	"samplewh/internal/core"
	"samplewh/internal/wal"
)

// ReplayedIngest describes one journaled ingest batch that startup recovery
// rebuilt: its values were re-fed through the data set's sampler family and
// the finished sample rolled in, exactly as the original handler would have
// done had the process survived.
type ReplayedIngest[V cmp.Ordered] struct {
	ID        uint64
	Dataset   string
	Partition string
	// Key is the client's Idempotency-Key from the original request, empty
	// if none was supplied. The server seeds its idempotency registry from
	// it so a client retrying across the crash gets a replay answer, not a
	// double ingest.
	Key    string
	Values int64
	Sample *core.Sample[V]
}

// ReplayReport summarizes one journal replay pass.
type ReplayReport[V cmp.Ordered] struct {
	Replayed []ReplayedIngest[V]
	// Orphaned counts journal entries whose data set no longer exists (it
	// was never created, or was dropped after the batch was acknowledged);
	// they are committed without replay so they never resurface.
	Orphaned int
}

// ReplayJournal drives the sealed-but-uncommitted entries recovered by
// wal.Open back through the warehouse: each batch is re-sampled with a fresh
// sampler, rolled in (RollIn is idempotent, so replaying a batch that did
// land before the crash converges instead of double-counting), and then
// committed in the journal so it is never replayed again. Call it after
// Open/Recover and before serving traffic.
//
// A store failure aborts the pass with the entry left uncommitted — the next
// startup retries it — while entries for unknown data sets are committed and
// counted as orphaned.
func (w *Warehouse[V]) ReplayJournal(lg *wal.Log[V], entries []wal.RecoveredEntry[V]) (*ReplayReport[V], error) {
	rep := &ReplayReport[V]{}
	for _, re := range entries {
		// Partition-seeded, like the live ingest path: a replayed batch must
		// reproduce the exact bytes the original roll-in produced (or its
		// replicas produced), so anti-entropy digests agree after recovery.
		smp, err := w.NewPartitionSampler(re.Dataset, re.Partition, re.Expected)
		if err != nil {
			rep.Orphaned++
			if cerr := lg.CommitRecovered(re.ID); cerr != nil {
				return rep, fmt.Errorf("warehouse: commit orphaned journal entry %d: %w", re.ID, cerr)
			}
			continue
		}
		core.FeedAll(smp, re.Values)
		sample, err := smp.Finalize()
		if err != nil {
			return rep, fmt.Errorf("warehouse: replay %s/%s: finalize: %w", re.Dataset, re.Partition, err)
		}
		if err := w.RollIn(re.Dataset, re.Partition, sample); err != nil {
			return rep, fmt.Errorf("warehouse: replay %s/%s: %w", re.Dataset, re.Partition, err)
		}
		if err := lg.CommitRecovered(re.ID); err != nil {
			return rep, fmt.Errorf("warehouse: commit journal entry %d: %w", re.ID, err)
		}
		rep.Replayed = append(rep.Replayed, ReplayedIngest[V]{
			ID:        re.ID,
			Dataset:   re.Dataset,
			Partition: re.Partition,
			Key:       re.Key,
			Values:    int64(len(re.Values)),
			Sample:    sample,
		})
	}
	return rep, nil
}
