package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// newCLI opens a cli over a temp warehouse directory.
func newCLI(t *testing.T, dir string) *cli {
	t.Helper()
	c := &cli{dir: dir}
	if err := c.open(); err != nil {
		t.Fatal(err)
	}
	return c
}

// writeValues writes a text value file and returns its path.
func writeValues(t *testing.T, dir string, n int64) string {
	t.Helper()
	var b strings.Builder
	for v := int64(0); v < n; v++ {
		b.WriteString(strconv.FormatInt(v%1000, 10))
		b.WriteByte('\n')
	}
	path := filepath.Join(dir, "values.txt")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLICreateIngestMergeEstimate(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "orders", "-alg", "HR", "-nf", "256"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 20000)
	if err := c.ingest([]string{"-ds", "orders", "-part", "p1", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	if err := c.ingest([]string{"-ds", "orders", "-part", "p2", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	if err := c.ls(nil); err != nil {
		t.Fatal(err)
	}
	if err := c.info([]string{"-ds", "orders"}); err != nil {
		t.Fatal(err)
	}
	if err := c.info([]string{"-ds", "orders", "-part", "p1"}); err != nil {
		t.Fatal(err)
	}
	if err := c.merge([]string{"-ds", "orders"}); err != nil {
		t.Fatal(err)
	}
	if err := c.merge([]string{"-ds", "orders", "-part", "p1,p2"}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"avg", "sum", "median", "distinct", "topk:5", "count:0..499"} {
		if err := c.estimate([]string{"-ds", "orders", "-q", q}); err != nil {
			t.Fatalf("estimate %s: %v", q, err)
		}
	}
	if err := c.rollout([]string{"-ds", "orders", "-part", "p1"}); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence of catalog + partition order.
	c2 := newCLI(t, dir)
	e, ok := c2.cat.Datasets["orders"]
	if !ok {
		t.Fatal("catalog lost data set on reopen")
	}
	if len(e.Partitions) != 1 || e.Partitions[0] != "p2" {
		t.Fatalf("partitions after reopen: %v", e.Partitions)
	}
	if err := c2.merge([]string{"-ds", "orders"}); err != nil {
		t.Fatal(err)
	}
}

func TestCLIHBRequiresExpected(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "d", "-alg", "HB", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 5000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p1", "-in", vals}); err == nil {
		t.Fatal("HB ingest without -expected accepted")
	}
	if err := c.ingest([]string{"-ds", "d", "-part", "p1", "-expected", "5000", "-in", vals}); err != nil {
		t.Fatal(err)
	}
}

func TestCLICreateValidation(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-alg", "HR"}); err == nil {
		t.Error("create without -ds accepted")
	}
	if err := c.create([]string{"-ds", "x", "-alg", "BOGUS"}); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := c.create([]string{"-ds", "x"}); err != nil {
		t.Fatal(err)
	}
	if err := c.create([]string{"-ds", "x"}); err == nil {
		t.Error("duplicate create accepted")
	}
}

func TestCLIIngestValidation(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.ingest([]string{"-part", "p"}); err == nil {
		t.Error("ingest without -ds accepted")
	}
	if err := c.ingest([]string{"-ds", "nope", "-part", "p"}); err == nil {
		t.Error("ingest into unknown data set accepted")
	}
	if err := c.create([]string{"-ds", "d"}); err != nil {
		t.Fatal(err)
	}
	// Malformed value file.
	bad := filepath.Join(t.TempDir(), "bad.txt")
	os.WriteFile(bad, []byte("12\nnot-a-number\n"), 0o644)
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-in", bad}); err == nil {
		t.Error("malformed input accepted")
	}
	// Empty value file.
	empty := filepath.Join(t.TempDir(), "empty.txt")
	os.WriteFile(empty, nil, 0o644)
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-in", empty}); err == nil {
		t.Error("empty input accepted")
	}
}

func TestCLIEstimateValidation(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 3000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"", "bogus", "topk:x", "count:1..", "count:a..b"} {
		if err := c.estimate([]string{"-ds", "d", "-q", q}); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestCLICorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{nope"), 0o644)
	c := &cli{dir: dir}
	if err := c.open(); err == nil {
		t.Fatal("corrupt catalog accepted")
	}
}

func TestCLIRolloutValidation(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.rollout([]string{"-ds", "d"}); err == nil {
		t.Error("rollout without -part accepted")
	}
	if err := c.create([]string{"-ds", "d"}); err != nil {
		t.Fatal(err)
	}
	if err := c.rollout([]string{"-ds", "d", "-part", "missing"}); err == nil {
		t.Error("rollout of missing partition accepted")
	}
}

func TestCLIGroupByQuery(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-ds", "d", "-nf", "128"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 5000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	if err := c.estimate([]string{"-ds", "d", "-q", "groupby:250"}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"groupby:0", "groupby:x"} {
		if err := c.estimate([]string{"-ds", "d", "-q", q}); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestCLIBinaryIngest(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	// Write a binary value file.
	path := filepath.Join(t.TempDir(), "values.bin")
	buf := make([]byte, 8*1000)
	for i := 0; i < 1000; i++ {
		v := uint64(i * 3)
		for b := 0; b < 8; b++ {
			buf[i*8+b] = byte(v >> (8 * b))
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-format", "binary", "-in", path}); err != nil {
		t.Fatal(err)
	}
	info, err := c.wh.Info("d", "p")
	if err != nil {
		t.Fatal(err)
	}
	if info.ParentSize != 1000 {
		t.Fatalf("parent %d", info.ParentSize)
	}
	// Truncated binary file must fail.
	if err := os.WriteFile(path, buf[:12], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.ingest([]string{"-ds", "d", "-part", "p2", "-format", "binary", "-in", path}); err == nil {
		t.Fatal("truncated binary accepted")
	}
	if err := c.ingest([]string{"-ds", "d", "-part", "p3", "-format", "bogus", "-in", path}); err == nil {
		t.Fatal("bogus format accepted")
	}
}

func TestCLIEquiDepthQuery(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-ds", "d", "-nf", "256"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 8000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	if err := c.estimate([]string{"-ds", "d", "-q", "equidepth:4"}); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"equidepth:1", "equidepth:x"} {
		if err := c.estimate([]string{"-ds", "d", "-q", q}); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
}

func TestCLIIngestRejectsDuplicatePartition(t *testing.T) {
	c := newCLI(t, t.TempDir())
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 2000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p1", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	if err := c.ingest([]string{"-ds", "d", "-part", "p1", "-in", vals}); err == nil {
		t.Fatal("duplicate partition ingest accepted")
	}
}

func TestCLIFsckCleanAfterKilledPut(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 2000)
	if err := c.ingest([]string{"-ds", "d", "-part", "p1", "-in", vals}); err != nil {
		t.Fatal(err)
	}
	// Simulate a process killed mid-Put: an unrenamed temp file.
	tmp := filepath.Join(dir, "samples", "d", ".tmp-9999999")
	if err := os.WriteFile(tmp, []byte{0x53, 0x57, 0x48}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.fsck(nil); err != nil {
		t.Fatalf("fsck after killed put: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file not swept")
	}
	// The real sample is untouched.
	if _, err := c.wh.PartitionSample("d", "p1"); err != nil {
		t.Fatal(err)
	}
}

func TestCLIFsckQuarantineAndFix(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 2000)
	for _, p := range []string{"p1", "p2"} {
		if err := c.ingest([]string{"-ds", "d", "-part", p, "-in", vals}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt p1's sample on disk.
	path := filepath.Join(dir, "samples", "d", "p1.sample")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Without -fix: the corruption is found (and quarantined), reported as a
	// problem.
	if err := c.fsck(nil); err == nil {
		t.Fatal("fsck missed the corruption")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}

	// With -fix: the now-dangling catalog entry is dropped.
	if err := c.fsck([]string{"-fix"}); err != nil {
		t.Fatalf("fsck -fix: %v", err)
	}
	if parts := c.cat.Datasets["d"].Partitions; len(parts) != 1 || parts[0] != "p2" {
		t.Fatalf("catalog after fix = %v", parts)
	}
	// And a reopened CLI is clean.
	c2 := newCLI(t, dir)
	if err := c2.fsck(nil); err != nil {
		t.Fatalf("fsck after fix: %v", err)
	}
}

// TestCLIFsckOpensDamagedWarehouse is the real-world repair path: a fresh
// swcli invocation against a warehouse with a corrupt partition. A strict
// open fails at attach-validation, so fsck must open leniently — otherwise
// the repair tool is blocked by the damage it exists to fix.
func TestCLIFsckOpensDamagedWarehouse(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 2000)
	for _, p := range []string{"p1", "p2"} {
		if err := c.ingest([]string{"-ds", "d", "-part", p, "-in", vals}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "samples", "d", "p1.sample")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// A strict open (every other subcommand) fails at attach-validation.
	strict := &cli{dir: dir}
	if err := strict.open(); err == nil {
		t.Fatal("strict open of a damaged warehouse succeeded")
	}

	// A lenient open (fsck) succeeds and records the broken partition; the
	// corrupt attach quarantined the file, so fsck reports it and -fix on a
	// second invocation clears the dangling entry.
	lenient := &cli{dir: dir, lenient: true}
	if err := lenient.open(); err != nil {
		t.Fatalf("lenient open: %v", err)
	}
	if len(lenient.broken) != 1 || lenient.broken[0].key != "d/p1" {
		t.Fatalf("broken = %+v", lenient.broken)
	}
	if err := lenient.fsck(nil); err == nil {
		t.Fatal("fsck missed the corrupt partition")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}

	fixer := &cli{dir: dir, lenient: true}
	if err := fixer.open(); err != nil {
		t.Fatalf("reopen for -fix: %v", err)
	}
	if err := fixer.fsck([]string{"-fix"}); err != nil {
		t.Fatalf("fsck -fix: %v", err)
	}
	// The warehouse opens strictly again and still answers queries.
	healed := newCLI(t, dir)
	if parts := healed.cat.Datasets["d"].Partitions; len(parts) != 1 || parts[0] != "p2" {
		t.Fatalf("catalog after fix = %v", parts)
	}
	if err := healed.estimate([]string{"-ds", "d", "-q", "avg"}); err != nil {
		t.Fatalf("estimate after repair: %v", err)
	}
}

// TestCLIFsckSketchPass damages the stored sketch sidecars directly — one
// deleted, one carrying a future format version — and checks fsck reports
// both while -fix rebuilds them from the stored samples.
func TestCLIFsckSketchPass(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "orders", "-alg", "HR", "-nf", "256"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 5000)
	for _, p := range []string{"p1", "p2"} {
		if err := c.ingest([]string{"-ds", "orders", "-part", p, "-in", vals}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.fsck(nil); err != nil {
		t.Fatalf("fsck on a fresh warehouse: %v", err)
	}

	if err := c.st.DeleteBlob("orders/p1"); err != nil {
		t.Fatal(err)
	}
	raw, err := c.st.GetBlob("orders/p2")
	if err != nil {
		t.Fatal(err)
	}
	var sk map[string]any
	if err := json.Unmarshal(raw, &sk); err != nil {
		t.Fatal(err)
	}
	sk["version"] = 99
	damaged, err := json.Marshal(sk)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.st.PutBlob("orders/p2", damaged); err != nil {
		t.Fatal(err)
	}

	if err := c.fsck(nil); err == nil {
		t.Fatal("fsck missed the damaged sidecars")
	}
	if err := c.fsck([]string{"-fix"}); err != nil {
		t.Fatalf("fsck -fix: %v", err)
	}
	if err := c.fsck(nil); err != nil {
		t.Fatalf("fsck after -fix: %v", err)
	}
}
