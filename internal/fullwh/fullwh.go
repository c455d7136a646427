// Package fullwh implements a miniature full-scale data warehouse — the
// left-hand side of the paper's Figure 1. It stores the actual data of every
// partition (one binary file per partition, little-endian int64 values) and
// answers exact queries by scanning. Its purpose in this repository is
// twofold: it gives the integration tests a ground truth to validate the
// sample-based estimates against, and it demonstrates the "shadowing"
// pipeline — every batch ingested into the full warehouse is simultaneously
// fed through a bounded sampler whose finalized sample rolls into the
// sample warehouse.
package fullwh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"samplewh/internal/core"
	"samplewh/internal/warehouse"
)

// Warehouse is a file-backed full-scale warehouse: data sets of partitioned
// int64 values. Safe for concurrent use.
type Warehouse struct {
	mu   sync.RWMutex
	root string
	sets map[string][]string // data set -> ordered partition ids
}

// Open opens (creating if necessary) a full warehouse rooted at dir and
// recovers its catalog from the directory layout.
func Open(dir string) (*Warehouse, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fullwh: create root: %w", err)
	}
	w := &Warehouse{root: dir, sets: make(map[string][]string)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("fullwh: read root: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		ds := e.Name()
		parts, err := os.ReadDir(filepath.Join(dir, ds))
		if err != nil {
			return nil, fmt.Errorf("fullwh: read %s: %w", ds, err)
		}
		var ids []string
		for _, p := range parts {
			if strings.HasSuffix(p.Name(), ".part") {
				ids = append(ids, strings.TrimSuffix(p.Name(), ".part"))
			}
		}
		sort.Strings(ids)
		w.sets[ds] = ids
	}
	return w, nil
}

// validName rejects path-hostile identifiers.
func validName(s string) bool {
	if s == "" || strings.ContainsAny(s, "/\\") || strings.Contains(s, "..") {
		return false
	}
	return true
}

// path returns the partition file location.
func (w *Warehouse) path(dataset, partition string) string {
	return filepath.Join(w.root, dataset, partition+".part")
}

// Datasets returns the data set names, sorted.
func (w *Warehouse) Datasets() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	out := make([]string, 0, len(w.sets))
	for ds := range w.sets {
		out = append(out, ds)
	}
	sort.Strings(out)
	return out
}

// Partitions returns the partition ids of a data set in sorted order.
func (w *Warehouse) Partitions(dataset string) ([]string, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	ids, ok := w.sets[dataset]
	if !ok {
		return nil, fmt.Errorf("fullwh: unknown data set %q", dataset)
	}
	return append([]string(nil), ids...), nil
}

// Ingest writes the values of a new partition to the full warehouse and, if
// sampler is non-nil, feeds every value through it as the batch loads — the
// shadow pipeline of Figure 1. It returns the number of values ingested.
func (w *Warehouse) Ingest(dataset, partition string, values func(yield func(int64) bool), sampler core.Sampler[int64]) (int64, error) {
	if !validName(dataset) || !validName(partition) {
		return 0, fmt.Errorf("fullwh: invalid names %q/%q", dataset, partition)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range w.sets[dataset] {
		if id == partition {
			return 0, fmt.Errorf("fullwh: partition %s/%s already exists", dataset, partition)
		}
	}
	if err := os.MkdirAll(filepath.Join(w.root, dataset), 0o755); err != nil {
		return 0, fmt.Errorf("fullwh: mkdir: %w", err)
	}
	path := w.path(dataset, partition)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, fmt.Errorf("fullwh: create: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	var n int64
	var buf [8]byte
	var writeErr error
	values(func(v int64) bool {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		if _, err := bw.Write(buf[:]); err != nil {
			writeErr = err
			return false
		}
		if sampler != nil {
			sampler.Feed(v)
		}
		n++
		return true
	})
	if writeErr == nil {
		writeErr = bw.Flush()
	}
	if writeErr == nil {
		writeErr = f.Sync()
	}
	if err := f.Close(); writeErr == nil {
		writeErr = err
	}
	if writeErr != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("fullwh: write: %w", writeErr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("fullwh: rename: %w", err)
	}
	w.sets[dataset] = append(w.sets[dataset], partition)
	sort.Strings(w.sets[dataset])
	return n, nil
}

// Delete removes a partition's data (the full-warehouse roll-out).
func (w *Warehouse) Delete(dataset, partition string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	ids, ok := w.sets[dataset]
	if !ok {
		return fmt.Errorf("fullwh: unknown data set %q", dataset)
	}
	idx := -1
	for i, id := range ids {
		if id == partition {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("fullwh: partition %s/%s not found", dataset, partition)
	}
	if err := os.Remove(w.path(dataset, partition)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fullwh: delete: %w", err)
	}
	w.sets[dataset] = append(ids[:idx], ids[idx+1:]...)
	return nil
}

// Scan streams every value of the named partitions (all partitions if none
// given) through fn; returning false from fn stops the scan early. This is
// the exact-but-slow path the sample warehouse exists to avoid.
func (w *Warehouse) Scan(dataset string, fn func(int64) bool, partitions ...string) error {
	w.mu.RLock()
	ids, ok := w.sets[dataset]
	if ok && len(partitions) > 0 {
		ids = partitions
	} else if ok {
		ids = append([]string(nil), ids...)
	}
	w.mu.RUnlock()
	if !ok {
		return fmt.Errorf("fullwh: unknown data set %q", dataset)
	}
	for _, id := range ids {
		if err := w.scanPartition(dataset, id, fn); err != nil {
			return err
		}
	}
	return nil
}

// scanPartition scans one partition file.
func (w *Warehouse) scanPartition(dataset, partition string, fn func(int64) bool) error {
	f, err := os.Open(w.path(dataset, partition))
	if err != nil {
		return fmt.Errorf("fullwh: open %s/%s: %w", dataset, partition, err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var buf [8]byte
	for {
		_, err := io.ReadFull(br, buf[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("fullwh: read %s/%s: %w", dataset, partition, err)
		}
		if !fn(int64(binary.LittleEndian.Uint64(buf[:]))) {
			return nil
		}
	}
}

// Count returns the exact number of elements satisfying pred.
func (w *Warehouse) Count(dataset string, pred func(int64) bool, partitions ...string) (int64, error) {
	var n int64
	err := w.Scan(dataset, func(v int64) bool {
		if pred(v) {
			n++
		}
		return true
	}, partitions...)
	return n, err
}

// Sum returns the exact sum of f(v) over the data.
func (w *Warehouse) Sum(dataset string, f func(int64) float64, partitions ...string) (float64, error) {
	var s float64
	err := w.Scan(dataset, func(v int64) bool {
		s += f(v)
		return true
	}, partitions...)
	return s, err
}

// Size returns the exact number of elements in the named partitions.
func (w *Warehouse) Size(dataset string, partitions ...string) (int64, error) {
	return w.Count(dataset, func(int64) bool { return true }, partitions...)
}

// Shadow ties a full warehouse to a sample warehouse: ingests write the data
// to the full side and roll the finalized bounded sample into the shadow
// side under the same (dataset, partition) key.
type Shadow struct {
	Full    *Warehouse
	Samples *warehouse.Warehouse[int64]
}

// NewShadow pairs the two warehouses.
func NewShadow(full *Warehouse, samples *warehouse.Warehouse[int64]) *Shadow {
	return &Shadow{Full: full, Samples: samples}
}

// Ingest loads one partition into the full warehouse while sampling it, then
// rolls the sample into the sample warehouse. expectedN is required for
// AlgHB data sets (pass 0 otherwise).
func (s *Shadow) Ingest(dataset, partition string, expectedN int64, values func(yield func(int64) bool)) (int64, error) {
	smp, err := s.Samples.NewPartitionSampler(dataset, partition, expectedN)
	if err != nil {
		return 0, err
	}
	n, err := s.Full.Ingest(dataset, partition, values, smp)
	if err != nil {
		return 0, err
	}
	sample, err := smp.Finalize()
	if err != nil {
		return 0, err
	}
	if err := s.Samples.RollIn(dataset, partition, sample); err != nil {
		return 0, err
	}
	return n, nil
}

// RollOut expires a partition from both sides.
func (s *Shadow) RollOut(dataset, partition string) error {
	if err := s.Full.Delete(dataset, partition); err != nil {
		return err
	}
	return s.Samples.RollOut(dataset, partition)
}
