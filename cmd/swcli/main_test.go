package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// newCLI opens a cli over a temp warehouse directory, as main does for every
// command but fsck.
func newCLI(t *testing.T, dir string) *cli {
	t.Helper()
	c := &cli{dir: dir}
	if err := c.openStore(); err != nil {
		t.Fatal(err)
	}
	if err := c.openWarehouse(); err != nil {
		t.Fatal(err)
	}
	return c
}

// newFsckCLI opens a cli the way main does for fsck: the store only.
func newFsckCLI(t *testing.T, dir string) *cli {
	t.Helper()
	c := &cli{dir: dir}
	if err := c.openStore(); err != nil {
		t.Fatal(err)
	}
	return c
}

// partitionsOf reopens dir and lists one data set's partitions.
func partitionsOf(t *testing.T, dir, ds string) []string {
	t.Helper()
	parts, err := newCLI(t, dir).wh.Partitions(ds)
	if err != nil {
		t.Fatal(err)
	}
	return parts
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
	for _, q := range []string{"avg", "sum", "median", "distinct", "topk:5", "count:0..499",
		"fraction:0..499", "quantile:0.9"} { // the grammar swd serves, whole
		if err := c.estimate([]string{"-ds", "orders", "-q", q}); err != nil {
			t.Fatalf("estimate %s: %v", q, err)
		}
	}
	if err := c.rollout([]string{"-ds", "orders", "-part", "p1"}); err != nil {
		t.Fatal(err)
	}

	// Reopen and verify persistence of catalog + partition order.
	if parts := partitionsOf(t, dir, "orders"); len(parts) != 1 || parts[0] != "p2" {
		t.Fatalf("partitions after reopen: %v", parts)
	}
	if err := newCLI(t, dir).merge([]string{"-ds", "orders"}); err != nil {
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
	for _, q := range []string{"", "bogus", "topk:x", "count:1..", "count:a..b", "count:9..1"} {
		if err := c.estimate([]string{"-ds", "d", "-q", q}); err == nil {
			t.Errorf("query %q accepted", q)
		}
	}
	// An inverted range is refused in the server's words, not answered 0.
	if err := c.estimate([]string{"-ds", "d", "-q", "count:9..1"}); err == nil || !strings.Contains(err.Error(), "bad range bounds") {
		t.Errorf("count:9..1: %v, want the server's \"bad range bounds\"", err)
	}
}

func TestCLICorruptCatalog(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{nope"), 0o644)
	c := newFsckCLI(t, dir)
	if err := c.openWarehouse(); err == nil {
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
	if parts := partitionsOf(t, dir, "d"); len(parts) != 1 || parts[0] != "p2" {
		t.Fatalf("catalog after fix = %v", parts)
	}
	// And a fresh fsck is clean.
	if err := newFsckCLI(t, dir).fsck(nil); err != nil {
		t.Fatalf("fsck after fix: %v", err)
	}
}

// TestCLIFsckOpensDamagedWarehouse is the real-world repair path: a fresh
// swcli invocation against a warehouse with a corrupt partition. fsck works on
// the store and the manifest as stored, so the damage cannot block it, and
// without -fix it reports and leaves the manifest alone.
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
	before, err := c.st.GetBlob("warehouse-manifest")
	if err != nil {
		t.Fatal(err)
	}

	if err := newFsckCLI(t, dir).fsck(nil); err == nil {
		t.Fatal("fsck missed the corrupt partition")
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	if after, err := c.st.GetBlob("warehouse-manifest"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("fsck without -fix rewrote the manifest (err %v)", err)
	}

	if err := newFsckCLI(t, dir).fsck([]string{"-fix"}); err != nil {
		t.Fatalf("fsck -fix: %v", err)
	}
	// The warehouse opens with nothing left to recover and answers queries.
	healed := newCLI(t, dir)
	if parts, _ := healed.wh.Partitions("d"); len(parts) != 1 || parts[0] != "p2" {
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

// stdoutOf runs one command and returns what it printed.
func stdoutOf(t *testing.T, cmd func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	err = cmd()
	os.Stdout = saved
	w.Close()
	printed := <-out
	if err != nil {
		t.Fatalf("%v\n%s", err, printed)
	}
	return printed
}

// TestCLIReadsServerWrittenStore: the manifest is the one catalog, so a store
// written by the daemon's stack — server.New over warehouse.Open, keyed ingest
// — is listed, estimated and fsck-clean under swcli, which has no registry of
// its own to miss it from.
func TestCLIReadsServerWrittenStore(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](filepath.Join(dir, "samples"), storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := warehouse.Open[int64](st, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(wh, server.Config{}).Handler())
	defer ts.Close()
	cl := server.NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := cl.CreateDataset(ctx, server.CreateDatasetRequest{Name: "served", NF: 64}); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"p1", "p2"} {
		vals, err := os.Open(writeValues(t, t.TempDir(), 3000))
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.IngestKeyed(ctx, "served", p, 0, "key-"+p, vals)
		vals.Close()
		if err != nil {
			t.Fatal(err)
		}
	}

	c := newCLI(t, dir)
	if out := stdoutOf(t, func() error { return c.ls(nil) }); !strings.Contains(out, "served  alg=HR nF=64 partitions=2") {
		t.Fatalf("ls over a server-written store:\n%s", out)
	}
	if out := stdoutOf(t, func() error { return c.info([]string{"-ds", "served"}) }); !strings.Contains(out, "2 partitions: p1, p2") {
		t.Fatalf("info over a server-written store:\n%s", out)
	}
	if out := stdoutOf(t, func() error { return c.estimate([]string{"-ds", "served", "-q", "avg"}) }); !strings.HasPrefix(out, "AVG ≈ ") {
		t.Fatalf("estimate over a server-written store:\n%s", out)
	}
	if out := stdoutOf(t, func() error { return newFsckCLI(t, dir).fsck(nil) }); out != "clean\n" {
		t.Fatalf("fsck over a server-written store:\n%s", out)
	}
}

// TestCLIReadOnlyCommandsWriteNothing: a swcli-written directory is a
// warehouse directory — warehouse.Open finds nothing to recover — and opening
// it again to list, describe, merge or estimate puts no sample, sidecar or
// manifest and leaves every seal as it was.
func TestCLIReadOnlyCommandsWriteNothing(t *testing.T) {
	dir := t.TempDir()
	c := newCLI(t, dir)
	if err := c.create([]string{"-ds", "d", "-nf", "64"}); err != nil {
		t.Fatal(err)
	}
	vals := writeValues(t, t.TempDir(), 2000)
	for _, p := range []string{"p1", "p2", "p3"} {
		if err := c.ingest([]string{"-ds", "d", "-part", p, "-in", vals}); err != nil {
			t.Fatal(err)
		}
	}
	hashes := func() map[string]string {
		t.Helper()
		wh, rep, err := warehouse.Open[int64](newFsckCLI(t, dir).st, 1)
		if err != nil || !rep.Clean() {
			t.Fatalf("warehouse.Open over a swcli directory: %v, %v", rep, err)
		}
		h, err := wh.PartitionHashes("d")
		if err != nil || len(h) != 3 || h["p1"] == "" {
			t.Fatalf("hashes = %v, %v", h, err)
		}
		return h
	}
	before := hashes()

	for _, cmd := range [][]string{
		{"ls"}, {"info", "-ds", "d"}, {"info", "-ds", "d", "-part", "p2"},
		{"merge", "-ds", "d"}, {"estimate", "-ds", "d", "-q", "avg"}, {"estimate", "-ds", "d", "-q", "distinct"},
	} {
		r := &cli{dir: dir, reg: obs.NewRegistry()}
		if err := r.openStore(); err != nil {
			t.Fatal(err)
		}
		if err := r.openWarehouse(); err != nil {
			t.Fatal(err)
		}
		run := map[string]func([]string) error{"ls": r.ls, "info": r.info, "merge": r.merge, "estimate": r.estimate}[cmd[0]]
		if err := run(cmd[1:]); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
		for _, name := range []string{"puts", "deletes", "blob_puts", "blob_deletes"} {
			if n := r.reg.Counter("storage.file." + name).Value(); n != 0 {
				t.Errorf("%v: storage.file.%s = %d, want 0", cmd, name, n)
			}
		}
	}
	if after := hashes(); !reflect.DeepEqual(after, before) {
		t.Fatalf("read-only commands re-sealed partitions:\nbefore %v\nafter  %v", before, after)
	}
}

// TestCLIRetiresLegacyCatalog: catalog.json is read at most once. Beside a
// manifest that names data sets it is set aside unread; alone — a directory
// older than the manifest — its data sets and stored samples are imported
// first, less any sample that is gone.
func TestCLIRetiresLegacyCatalog(t *testing.T) {
	dir := t.TempDir()
	st := newFsckCLI(t, dir).st
	sample := func(seed uint64) *core.Sample[int64] {
		hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(seed))
		for v := int64(0); v < 2000; v++ {
			hr.Feed(v)
		}
		s, err := hr.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i, p := range []string{"p1", "p2"} {
		if err := st.Put("old/"+p, sample(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	legacy := filepath.Join(dir, "catalog.json")
	if err := os.WriteFile(legacy, []byte(`{"datasets": {"old": {"algorithm": "HR", "nf": 64, "p": 0.001,
		"partitions": ["p1", "gone", "p2"], "next_seed": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	c := newCLI(t, dir)
	if out := stdoutOf(t, func() error { return c.ls(nil) }); !strings.Contains(out, "old  alg=HR nF=64 partitions=2") {
		t.Fatalf("ls after the import:\n%s", out)
	}
	if err := c.estimate([]string{"-ds", "old", "-q", "avg"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("catalog.json still in place after the import (err %v)", err)
	}
	if out := stdoutOf(t, func() error { return newFsckCLI(t, dir).fsck(nil) }); out != "clean\n" {
		t.Fatalf("fsck after the import:\n%s", out)
	}

	// A catalog.json beside a manifest with data sets is not consulted: this
	// one would not parse.
	if err := os.WriteFile(legacy, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if parts := partitionsOf(t, dir, "old"); !reflect.DeepEqual(parts, []string{"p1", "p2"}) {
		t.Fatalf("partitions = %v", parts)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("catalog.json still in place beside a manifest (err %v)", err)
	}
}

// TestCLIEstimateAgreesWithServer: swcli estimate answers count: and
// fraction: as swd does — the same sidecar-pruned strata, read strictly — so
// on a store written through swd it prints the interval swd returns for
// ?partial=0. Strata draw no randomness, so the two agree exactly.
func TestCLIEstimateAgreesWithServer(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](filepath.Join(dir, "samples"), storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := warehouse.Open[int64](st, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(wh, server.Config{}).Handler())
	defer ts.Close()
	cl := server.NewClient(ts.URL, nil)
	ctx := context.Background()
	if _, err := cl.CreateDataset(ctx, server.CreateDatasetRequest{Name: "served", NF: 128}); err != nil {
		t.Fatal(err)
	}
	for i, p := range []string{"p1", "p2", "p3"} {
		var b strings.Builder
		for v := 0; v < 3000; v++ {
			b.WriteString(strconv.Itoa(5000*i + v))
			b.WriteByte('\n')
		}
		if _, err := cl.IngestKeyed(ctx, "served", p, 0, "key-"+p, strings.NewReader(b.String())); err != nil {
			t.Fatal(err)
		}
	}

	c := newCLI(t, dir)
	for _, q := range []string{"count:0..499", "fraction:0..499", "count:100..6000", "fraction:2500..12000", "count:20000..30000"} {
		resp, err := cl.Estimate(ctx, "served", q, server.QueryOpts{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		kind, arg, _ := strings.Cut(q, ":")
		want := fmt.Sprintf("%s(%s) ≈ %s @ 95%% confidence\n", strings.ToUpper(kind), arg, *resp.Estimate)
		if got := stdoutOf(t, func() error { return c.estimate([]string{"-ds", "served", "-q", q}) }); got != want {
			t.Errorf("%s: swcli printed\n  %s swd answered\n  %s", q, got, want)
		}
	}
}
