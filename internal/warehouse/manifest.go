package warehouse

import (
	"cmp"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/sketch"
	"samplewh/internal/storage"
)

// manifestName is the blob key of the warehouse catalog. It lives beside the
// sample files (".blob" suffix on file stores) and goes through the same
// atomic-rename write path, so a crash leaves either the old catalog or the
// new one — never a torn manifest. Each partition's sketch sidecar is a blob
// of its own, named by the partition's store key: it sits beside the sample
// it summarizes and counts for nothing until the manifest names the partition.
const manifestName = "warehouse-manifest"

// manifestVersion is bumped on incompatible manifest layout changes; older
// readers must refuse newer manifests rather than guess.
const manifestVersion = 1

// manifest is the serialized warehouse catalog: every data set's sampling
// configuration plus its attached partitions in roll-in order.
type manifest struct {
	Version  int                        `json:"version"`
	Datasets map[string]manifestDataset `json:"datasets"`
}

type manifestDataset struct {
	Algorithm      string   `json:"algorithm"`
	SBRate         float64  `json:"sb_rate,omitempty"`
	FootprintBytes int64    `json:"footprint_bytes"`
	ValueBytes     int64    `json:"value_bytes,omitempty"`
	CountBytes     int64    `json:"count_bytes,omitempty"`
	ExceedProb     float64  `json:"exceed_prob,omitempty"`
	Partitions     []string `json:"partitions"`
	// Stats is the planner's per-partition statistics registry (see
	// stats.go). The field is optional so manifests written before the
	// registry existed still load under the same version: their partitions
	// simply plan as "unknown" until the first planned query backfills them.
	Stats map[string]manifestPartitionStats `json:"partition_stats,omitempty"`
	// Sketches is where manifests used to carry the sidecars inline; it is
	// still read (records) and never written — the first catalog write moves
	// the sidecars out to their blobs.
	Sketches map[string]*sketch.Summary `json:"partition_sketches,omitempty"`
	// Hashes is the per-partition content-hash registry for anti-entropy
	// digests (see antientropy.go). Optional under the same version:
	// partitions without hashes compare by presence only until the next
	// roll-in or swcli fsck -fix recomputes them.
	Hashes map[string]string `json:"partition_hashes,omitempty"`
}

// manifestPartitionStats is one registry entry as persisted: the roll-in
// snapshot plus the loader's latency EWMA at the last catalog write.
type manifestPartitionStats struct {
	PartitionStats
	LoadEWMANS int64 `json:"load_ewma_ns,omitempty"`
}

// parseAlgorithm inverts Algorithm.String.
func parseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "HB":
		return AlgHB, nil
	case "HR":
		return AlgHR, nil
	case "SB":
		return AlgSB, nil
	default:
		return 0, fmt.Errorf("warehouse: unknown algorithm %q in manifest", s)
	}
}

// records reads a manifest data set's registries, and each partition's sidecar
// blob, as catalog records in roll-in order — with setRecords the one place the
// on-disk layout is known. Sidecars come back as stored, valid or not: Open
// drops the unusable ones, fsck reports them; a blob that is missing or does
// not decode is no sidecar. An inline sidecar wins over a blob and is marked
// for the move out.
func records[V cmp.Ordered](st storage.Store[V], md manifestDataset, dataset string) []*partition {
	recs := make([]*partition, len(md.Partitions))
	for i, id := range md.Partitions {
		ps, known := md.Stats[id]
		sk := md.Sketches[id]
		inline := sk != nil
		if !inline {
			sk = loadSidecar(st, dataset+"/"+id)
		}
		recs[i] = &partition{
			id:            id,
			stats:         ps.PartitionStats,
			known:         known,
			sketch:        sk,
			sketchUnsaved: inline,
			hash:          md.Hashes[id],
			ewmaNS:        ps.LoadEWMANS,
		}
	}
	return recs
}

// loadSidecar decodes one partition's sidecar blob, nil when there is none to
// decode.
func loadSidecar[V cmp.Ordered](st storage.Store[V], key string) *sketch.Summary {
	data, err := st.GetBlob(key)
	if err != nil {
		return nil
	}
	var sk *sketch.Summary
	if json.Unmarshal(data, &sk) != nil {
		return nil
	}
	return sk
}

// saveSidecars writes the sidecars the store does not hold yet, one compact
// blob each — an installed or backfilled record's own, or all of them when
// the catalog came from a manifest that carried them inline. They go out
// before the manifest that names them, so a crash in between leaves what was
// there.
func saveSidecars[V cmp.Ordered](st storage.Store[V], dataset string, recs []*partition) error {
	for _, p := range recs {
		if p.sketch == nil || !p.sketchUnsaved {
			continue
		}
		data, err := json.Marshal(p.sketch)
		if err != nil {
			return fmt.Errorf("warehouse: encode sidecar %s/%s: %w", dataset, p.id, err)
		}
		if err := st.PutBlob(dataset+"/"+p.id, data); err != nil {
			return fmt.Errorf("warehouse: save sidecar %s/%s: %w", dataset, p.id, err)
		}
		p.sketchUnsaved = false
	}
	return nil
}

// setRecords is the inverse of records for the manifest's own facts: they are
// laid out as three registries, each omitted while no record has an entry for
// it, so a catalog loaded from an older manifest re-saves in that manifest's
// shape. The sidecars are saveSidecars' to write.
func (md *manifestDataset) setRecords(recs []*partition) {
	md.Partitions = make([]string, len(recs))
	md.Stats, md.Sketches, md.Hashes = nil, nil, nil
	for i, p := range recs {
		md.Partitions[i] = p.id
		if p.known {
			if md.Stats == nil {
				md.Stats = make(map[string]manifestPartitionStats, len(recs))
			}
			md.Stats[p.id] = manifestPartitionStats{PartitionStats: p.stats, LoadEWMANS: p.ewmaNS}
		}
		if p.hash != "" {
			if md.Hashes == nil {
				md.Hashes = make(map[string]string, len(recs))
			}
			md.Hashes[p.id] = p.hash
		}
	}
}

// buildManifest snapshots the catalog. Callers hold w.mu.
func (w *Warehouse[V]) buildManifest() manifest {
	m := manifest{Version: manifestVersion, Datasets: make(map[string]manifestDataset, len(w.sets))}
	for name, ds := range w.sets {
		md := manifestDataset{
			Algorithm:      ds.cfg.Algorithm.String(),
			SBRate:         ds.cfg.SBRate,
			FootprintBytes: ds.cfg.Core.FootprintBytes,
			ValueBytes:     ds.cfg.Core.SizeModel.ValueBytes,
			CountBytes:     ds.cfg.Core.SizeModel.CountBytes,
			ExceedProb:     ds.cfg.Core.ExceedProb,
		}
		for _, p := range ds.parts {
			p.ewmaNS = w.ld.ewmaNS(w.key(name, p.id))
		}
		md.setRecords(ds.parts)
		m.Datasets[name] = md
	}
	return m
}

// saveManifest persists the catalog through the store's blob side channel:
// the sidecars it does not hold yet, then the manifest. Callers hold w.mu.
func (w *Warehouse[V]) saveManifest() error {
	for name, ds := range w.sets {
		if err := saveSidecars(w.store, name, ds.parts); err != nil {
			return err
		}
	}
	return saveManifestBlob(w.store, w.buildManifest())
}

// saveManifestBlob writes m as the store's catalog; fsck, which repairs the
// catalog without a live warehouse, calls it directly.
func saveManifestBlob[V cmp.Ordered](st storage.Store[V], m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("warehouse: encode manifest: %w", err)
	}
	if err := st.PutBlob(manifestName, data); err != nil {
		return fmt.Errorf("warehouse: save manifest: %w", err)
	}
	return nil
}

// loadManifest reads and validates the stored catalog; a missing blob yields
// an empty manifest (fresh warehouse).
func loadManifest[V cmp.Ordered](st storage.Store[V]) (manifest, error) {
	var m manifest
	data, err := st.GetBlob(manifestName)
	if storage.IsNotFound(err) {
		return manifest{Version: manifestVersion, Datasets: map[string]manifestDataset{}}, nil
	}
	if err != nil {
		return m, fmt.Errorf("warehouse: load manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("warehouse: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("warehouse: manifest version %d unsupported (want %d)", m.Version, manifestVersion)
	}
	if m.Datasets == nil {
		m.Datasets = map[string]manifestDataset{}
	}
	return m, nil
}

// fsckVerdict is what an fsck pass decides about one partition record.
type fsckVerdict uint8

const (
	fsckKeep     fsckVerdict = iota // leave the record as stored
	fsckRepaired                    // the pass changed the record in place: write it back
	fsckDrop                        // remove the record, and its sidecar, from the catalog
)

// fsckCatalog is the offline walker behind swcli fsck's catalog passes
// (reconcile, sidecars, seals). It operates on the durable manifest directly —
// not on a live warehouse, whose Open would repair what fsck is there to
// report — visiting every partition record in (data set, roll-in) order;
// check reports, and says what becomes of the record. A changed catalog is
// written back once, after the walk: the sidecars that were rebuilt, then the
// manifest.
func fsckCatalog(store storage.Store[int64], check func(key string, p *partition) fsckVerdict) error {
	m, err := loadManifest(store)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(m.Datasets))
	for name := range m.Datasets {
		names = append(names, name)
	}
	sort.Strings(names)
	changed := false
	walked := make(map[string][]*partition, len(names))
	for _, name := range names {
		for _, p := range records(store, m.Datasets[name], name) {
			key := name + "/" + p.id
			switch check(key, p) {
			case fsckDrop:
				// Best effort, as in Recover: a sidecar that outlives its
				// record is inert.
				_ = store.DeleteBlob(key)
				changed = true
				continue
			case fsckRepaired:
				changed = true
			}
			walked[name] = append(walked[name], p)
		}
	}
	if !changed {
		return nil
	}
	for _, name := range names {
		if err := saveSidecars(store, name, walked[name]); err != nil {
			return err
		}
		md := m.Datasets[name]
		md.setRecords(walked[name])
		m.Datasets[name] = md
	}
	return saveManifestBlob(store, m)
}

// CatalogFsckReport summarizes one offline manifest-vs-store reconciliation
// (swcli fsck's catalog pass) — what Recover would find, without repairing it
// unasked. Entries are "dataset/partition" keys.
type CatalogFsckReport struct {
	// Dangling records name a sample the store does not hold (crashed ingest,
	// quarantined corruption); with fix they are dropped from the manifest.
	// Orphans are stored samples no record claims (crashed roll-out, foreign
	// files); they are reported, never deleted.
	Dangling []string
	Orphans  []string
}

// FsckReconcile audits the manifest's partition records against the store's
// keys. With fix set it drops the dangling records and rewrites the manifest
// (see fsckCatalog).
func FsckReconcile(store storage.Store[int64], fix bool) (*CatalogFsckReport, error) {
	keys, err := store.Keys("")
	if err != nil {
		return nil, fmt.Errorf("warehouse: fsck catalog: list store: %w", err)
	}
	unclaimed := make(map[string]bool, len(keys))
	for _, k := range keys {
		unclaimed[k] = true
	}
	rep := &CatalogFsckReport{}
	err = fsckCatalog(store, func(key string, p *partition) fsckVerdict {
		if unclaimed[key] {
			delete(unclaimed, key)
			return fsckKeep
		}
		rep.Dangling = append(rep.Dangling, key)
		if fix {
			return fsckDrop
		}
		return fsckKeep
	})
	for k := range unclaimed {
		rep.Orphans = append(rep.Orphans, k)
	}
	sort.Strings(rep.Dangling)
	sort.Strings(rep.Orphans)
	return rep, err
}

// RecoveryReport summarizes one manifest-vs-store reconciliation.
type RecoveryReport struct {
	// Datasets and Partitions count the catalog after reconciliation.
	Datasets   int
	Partitions int
	// Dangling lists manifest entries ("dataset/partition") whose sample was
	// missing from the store; they were dropped from the catalog.
	Dangling []string
	// Orphans lists store keys no manifest entry claims. They are reported,
	// not deleted — an orphan may be a roll-in that lost the race with a
	// crash, and deleting data is the operator's call (swcli fsck -fix).
	Orphans []string
}

// Open loads a durable warehouse from the store's persisted manifest and
// reconciles it against the store's contents (see Recover), seeding all merge
// randomness from seed. It is the one way to build a warehouse: a store
// without a manifest opens as an empty warehouse, whose catalog the first
// CreateDataset persists.
func Open[V cmp.Ordered](store storage.Store[V], seed uint64) (*Warehouse[V], *RecoveryReport, error) {
	m, err := loadManifest(store)
	if err != nil {
		return nil, nil, err
	}
	w := &Warehouse[V]{
		store: store,
		rng:   randx.New(seed),
		sets:  make(map[string]*dataset, len(m.Datasets)),
		ld:    newLoader(store),
	}
	for name, md := range m.Datasets {
		alg, err := parseAlgorithm(md.Algorithm)
		if err != nil {
			return nil, nil, err
		}
		cfg := DatasetConfig{
			Algorithm: alg,
			SBRate:    md.SBRate,
		}
		cfg.Core.FootprintBytes = md.FootprintBytes
		cfg.Core.SizeModel = histogram.SizeModel{ValueBytes: md.ValueBytes, CountBytes: md.CountBytes}
		cfg.Core.ExceedProb = md.ExceedProb
		norm, err := cfg.normalized()
		if err != nil {
			return nil, nil, fmt.Errorf("warehouse: manifest data set %q: %w", name, err)
		}
		ds := &dataset{cfg: norm}
		for _, p := range records(store, md, name) {
			// Corrupt or version-skewed sidecars are dropped here so the query
			// path rebuilds them; fsck reads the stored ones and still
			// reports them.
			p.sketch = validSketch(p.sketch)
			ds.upsert(*p)
			w.ld.seedEWMA(w.key(name, p.id), p.ewmaNS)
		}
		w.sets[name] = ds
	}
	rep, err := w.Recover()
	if err != nil {
		return nil, nil, err
	}
	return w, rep, nil
}

// Recover reconciles the in-memory catalog against the store: every cataloged
// partition whose sample is missing (crashed roll-in, quarantined corruption)
// is dropped as dangling, and every stored sample no catalog entry claims is
// reported as an orphan. The repaired catalog is persisted. Open calls this;
// it is exported so long-lived processes can re-reconcile after storage-level
// surgery.
func (w *Warehouse[V]) Recover() (*RecoveryReport, error) {
	keys, err := w.store.Keys("")
	if err != nil {
		return nil, fmt.Errorf("warehouse: recover: list store: %w", err)
	}
	present := make(map[string]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	// The reconciliation may drop partitions; anything cached for them is
	// stale. Reset the whole read cache rather than track fine-grained keys.
	w.ld.reset()
	rep := &RecoveryReport{}
	claimed := make(map[string]bool)
	changed := false
	for name, ds := range w.sets {
		for _, id := range ds.ids() {
			k := w.key(name, id)
			if present[k] {
				claimed[k] = true
				continue
			}
			rep.Dangling = append(rep.Dangling, k)
			// Best effort: a sidecar that outlives its dropped record is inert,
			// and a store that cannot delete it must not keep the rest closed.
			_ = w.deleteSidecar(k)
			ds.remove(id)
			w.ld.dropEWMA(k)
			changed = true
		}
		rep.Partitions += len(ds.parts)
	}
	w.gauges()
	rep.Datasets = len(w.sets)
	for _, k := range keys {
		if !claimed[k] {
			rep.Orphans = append(rep.Orphans, k)
		}
	}
	sort.Strings(rep.Dangling)
	sort.Strings(rep.Orphans)

	if changed {
		if err := w.saveManifest(); err != nil {
			return nil, err
		}
	}
	w.o.recoveries.Inc()
	if w.o.reg.Tracing() {
		w.o.reg.Emit(obs.Event{
			Type:      obs.EvRecovery,
			Component: "warehouse",
			Values: map[string]int64{
				"datasets":   int64(rep.Datasets),
				"partitions": int64(rep.Partitions),
				"dangling":   int64(len(rep.Dangling)),
				"orphans":    int64(len(rep.Orphans)),
			},
		})
	}
	return rep, nil
}

// String renders the report for logs and the CLI.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovered %d data set(s), %d partition(s)", r.Datasets, r.Partitions)
	if len(r.Dangling) > 0 {
		fmt.Fprintf(&b, "; dropped %d dangling: %s", len(r.Dangling), strings.Join(r.Dangling, ", "))
	}
	if len(r.Orphans) > 0 {
		fmt.Fprintf(&b, "; %d orphan(s): %s", len(r.Orphans), strings.Join(r.Orphans, ", "))
	}
	return b.String()
}

// Clean reports whether recovery found nothing to repair or flag.
func (r *RecoveryReport) Clean() bool {
	return len(r.Dangling) == 0 && len(r.Orphans) == 0
}
