package warehouse

import (
	"fmt"
	"hash/crc32"
	"sort"

	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// Anti-entropy support (DESIGN.md §16). Every partition carries a content
// hash over its stored sample bytes plus the sketch-sidecar format version,
// persisted in the manifest next to the stats and sketch registries. Replicas
// compare per-dataset inventories of these hashes to detect missing or stale
// partitions and transfer the raw stored bytes so the adopted copy is
// byte-identical to its source. Deterministic per-partition sampler seeding
// (NewPartitionSampler) is what makes equal inputs produce equal bytes on
// every replica in the first place.

// hashCRCTable is the Castagnoli table for content hashes — the same
// polynomial the storage codec uses for its trailing checksum.
var hashCRCTable = crc32.MakeTable(crc32.Castagnoli)

// contentHash derives a partition's inventory hash from its encoded sample
// bytes and the sidecar format version. Folding the sketch version in means
// a sketch format bump reads as "stale" cluster-wide and repair re-transfers
// the partition (bringing the re-built sidecar along) instead of trusting a
// sidecar the new code cannot use.
func contentHash(raw []byte, sk *sketch.Summary) string {
	v := 0
	if sk != nil {
		v = sk.Version
	}
	return fmt.Sprintf("%08x.%d", crc32.Checksum(raw, hashCRCTable), v)
}

// partitionSeed derives the deterministic sampler seed for one partition:
// FNV-1a over dataset NUL partition, finalized with SplitMix64. The seed
// deliberately excludes the warehouse's own RNG state — every replica of a
// (dataset, partition) pair must draw the same randomness so that feeding the
// same values yields the same sample bytes, which is what lets anti-entropy
// compare replicas by hash and lets a converged cluster answer estimates
// byte-identically to a never-failed one.
func partitionSeed(dataset, partitionID string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(dataset); i++ {
		h ^= uint64(dataset[i])
		h *= prime64
	}
	h ^= 0 // the NUL separator keeps ("ab","c") distinct from ("a","bc")
	h *= prime64
	for i := 0; i < len(partitionID); i++ {
		h ^= uint64(partitionID[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rawStore returns the store's raw-bytes extension when it has one. Without
// it the warehouse degrades to presence-only inventories (empty hashes) and
// cannot export or adopt partitions.
func (w *Warehouse[V]) rawStore() (storage.RawStore[V], bool) {
	rs, ok := w.store.(storage.RawStore[V])
	return rs, ok
}

// PartitionHashes returns one data set's inventory: partition ID → content
// hash for every attached partition, in no particular order. Partitions
// without a recorded hash (store without raw access, or attached before
// hashes existed) map to "" — digest comparison then degrades to presence
// checks for them.
func (w *Warehouse[V]) PartitionHashes(dataset string) (map[string]string, error) {
	return snapshot(w, dataset, func(p *partition) (string, bool) { return p.hash, true })
}

// PartitionTransfer is one partition as shipped between replicas: the exact
// stored bytes, the sidecar, and the content hash the receiver can verify.
type PartitionTransfer struct {
	Raw    []byte
	Sketch *sketch.Summary
	Hash   string
}

// ExportPartition packages an attached partition for transfer to another
// replica. It errors when the store has no raw access or the partition is
// not attached.
func (w *Warehouse[V]) ExportPartition(dataset, partitionID string) (*PartitionTransfer, error) {
	rs, ok := w.rawStore()
	if !ok {
		return nil, fmt.Errorf("warehouse: export %s/%s: store has no raw access", dataset, partitionID)
	}
	w.mu.RLock()
	ds, dsok := w.sets[dataset]
	attached := false
	var sk *sketch.Summary
	if dsok {
		if p := ds.byID[partitionID]; p != nil {
			attached = true
			if validSketch(p.sketch) != nil {
				sk = p.sketch.Clone()
			}
		}
	}
	w.mu.RUnlock()
	if !dsok {
		return nil, unknownDataset(dataset)
	}
	if !attached {
		return nil, fmt.Errorf("warehouse: export %s/%s: %w", dataset, partitionID,
			&storage.NotFoundError{Key: w.key(dataset, partitionID)})
	}
	raw, err := rs.GetRaw(w.key(dataset, partitionID))
	if err != nil {
		return nil, fmt.Errorf("warehouse: export %s/%s: %w", dataset, partitionID, err)
	}
	return &PartitionTransfer{Raw: raw, Sketch: sk, Hash: contentHash(raw, sk)}, nil
}

// AdoptPartition installs a partition transferred from another replica: the
// raw bytes are validated by decoding, stored verbatim (so the local copy is
// byte-identical to the source and the inventories agree), and registered in
// the catalog with the same idempotent-replace semantics as RollIn. The
// transferred sidecar is adopted as-is when valid; otherwise one is derived
// from the sample.
func (w *Warehouse[V]) AdoptPartition(dataset, partitionID string, raw []byte, sk *sketch.Summary) error {
	rs, ok := w.rawStore()
	if !ok {
		return fmt.Errorf("warehouse: adopt %s/%s: store has no raw access", dataset, partitionID)
	}
	s, err := rs.DecodeRaw(raw)
	if err != nil {
		return fmt.Errorf("warehouse: adopt %s/%s: %w", dataset, partitionID, err)
	}
	if sk = validSketch(sk); sk != nil {
		sk = sk.Clone()
	}
	return w.install(opAdopt, dataset, partitionID, s, raw, sk)
}

// HashFsckReport summarizes one content-hash audit (swcli fsck pass 6).
// Entries are "dataset/partition" keys.
type HashFsckReport struct {
	Checked int
	// Missing partitions have no recorded content hash; Mismatched hashes
	// disagree with the stored sample bytes — the digest would either hide a
	// divergence or propagate a corrupt copy to peers.
	Missing    []string
	Mismatched []string
	// Fixed lists partitions whose hash was recomputed from the stored bytes
	// (-fix); fixed entries remain listed under their problem.
	Fixed []string
}

// Problems counts the hash defects found.
func (r *HashFsckReport) Problems() int {
	return len(r.Missing) + len(r.Mismatched)
}

// FsckHashes audits the manifest's partition content hashes against the
// stored sample bytes, so anti-entropy digests cannot silently propagate
// corruption or go stale. With fix set it recomputes defective hashes and
// rewrites the manifest (see fsckCatalog). A store without raw access has
// nothing to verify and yields an empty report.
func FsckHashes(store storage.Store[int64], fix bool) (*HashFsckReport, error) {
	rep := &HashFsckReport{}
	rs, hasRaw := store.(storage.RawStore[int64])
	err := fsckCatalog(store, "hashes", func(key string, p *partition) fsckVerdict {
		if !hasRaw {
			return fsckKeep
		}
		raw, err := rs.GetRaw(key)
		if err != nil {
			// The sample itself is unreadable or missing; the main fsck
			// passes own that problem.
			return fsckKeep
		}
		rep.Checked++
		want := contentHash(raw, p.sketch)
		switch p.hash {
		case want:
			return fsckKeep
		case "":
			rep.Missing = append(rep.Missing, key)
		default:
			rep.Mismatched = append(rep.Mismatched, key)
		}
		if !fix {
			return fsckKeep
		}
		p.hash = want
		rep.Fixed = append(rep.Fixed, key)
		return fsckRepaired
	})
	sort.Strings(rep.Missing)
	sort.Strings(rep.Mismatched)
	sort.Strings(rep.Fixed)
	return rep, err
}
