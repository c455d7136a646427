package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// storedStateRows is one benchmark-shaped partition: 65 536 near-unique rows
// drawn from a fixed splitmix64 stream over [0, 2²¹), so HR at n_F = 8192
// ends in its reservoir phase.
func storedStateRows() []int64 {
	vals := make([]int64, 1<<16)
	x := uint64(1)
	for i := range vals {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		vals[i] = int64((z ^ (z >> 31)) % (1 << 21))
	}
	return vals
}

// TestIngestStoredStatePinned: one seeded 65 536-row PUT into a file-backed,
// journaled server records the content hash and writes exactly the files
// listed here — the stored sample, its sidecar JSON, the manifest and the
// journal segment — by length and SHA-256 prefix. The values were recorded
// before the write path was made single-pass; a change that moves any stored
// byte (a draw, an entry order, an encoding, a frame) fails it.
func TestIngestStoredStatePinned(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.NewFileStore[int64](filepath.Join(dir, "samples"), storage.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	wh, _, err := warehouse.Open[int64](st, 1)
	if err != nil {
		t.Fatal(err)
	}
	lg, _, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{}, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	s := New(wh, Config{Journal: lg})
	if w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"bench","algorithm":"HR","nf":8192}`); w.Code != http.StatusCreated {
		t.Fatalf("create: %d %s", w.Code, w.Body)
	}
	var body strings.Builder
	for _, v := range storedStateRows() {
		body.WriteString(strconv.FormatInt(v, 10))
		body.WriteByte('\n')
	}
	if w := do(t, s, http.MethodPut, "/v1/datasets/bench/partitions/p0000", body.String()); w.Code != http.StatusCreated {
		t.Fatalf("put: %d %s", w.Code, w.Body)
	}
	hashes, err := wh.PartitionHashes("bench")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"content hash " + hashes["p0000"]}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		sum := sha256.Sum256(data)
		got = append(got, fmt.Sprintf("%s %d %s", filepath.ToSlash(rel), len(data), hex.EncodeToString(sum[:8])))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"content hash 09553e13.1",
		"samples/bench/p0000.blob 5684 a44cbd367c46ff53",    // the sidecar JSON
		"samples/bench/p0000.sample 36850 10b7045de03d8f63", // the value-ordered sample
		"samples/warehouse-manifest.blob 469 63237805ca5cc932",
		"wal/0000000000000001.wal 229513 76119407a228eb3e", // begin, 16 values frames, seal, commit
	}
	if !slices.Equal(got, want) {
		t.Fatalf("stored state:\n got %q\nwant %q", got, want)
	}
}
