package storage_test

import (
	"bytes"
	"math"
	"os"
	"slices"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/histogram"
	"samplewh/internal/obs"
	"samplewh/internal/randx"
	"samplewh/internal/storage"
)

// legacyOrder is a sample file written before value order was the stored
// order: its entries are in insertion order.
const legacyOrder = "testdata/legacy-order.sample"

// contractStores builds one of each store: in memory, on disk, and the fault
// injector under a clean schedule. kind is the prefix the store's metrics
// carry.
func contractStores(t testing.TB) []struct {
	name, kind string
	st         storage.Store[int64]
} {
	fs := func() *storage.FileStore[int64] {
		st, err := storage.NewFileStore[int64](t.TempDir(), storage.Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	return []struct {
		name, kind string
		st         storage.Store[int64]
	}{
		{"MemStore", "storage.mem", storage.NewMemStore[int64](storage.Int64Codec{})},
		{"FileStore", "storage.file", fs()},
		{"faults.Wrap", "storage.file", faults.Wrap[int64](fs(), faults.Rates{})},
	}
}

// shuffledSample is an HR sample over values with repeats, its entries in a
// seeded order that is not value order.
func shuffledSample(t *testing.T, seed uint64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(seed))
	for v := int64(0); v < 4000; v++ {
		hr.Feed(v * 7919 % 97)
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	entries := s.Hist.Entries()
	r := randx.New(seed + 1)
	for i := len(entries) - 1; i > 0; i-- {
		j := randx.Intn(r, i+1)
		entries[i], entries[j] = entries[j], entries[i]
	}
	s.Hist = histogram.FromEntries(s.Hist.Model(), entries)
	if s.Hist.IsSorted() {
		t.Fatal("fixture is in value order already")
	}
	return s
}

// sameSample reports whether a and b hold the same entries in the same order
// and the same header.
func sameSample(a, b *core.Sample[int64]) bool {
	return a.Kind == b.Kind && a.ParentSize == b.ParentSize && a.Config == b.Config &&
		math.Float64bits(a.Q) == math.Float64bits(b.Q) && slices.Equal(a.Hist.Entries(), b.Hist.Entries())
}

// TestStoreContract holds every store to the one Store contract: value order
// on Put, the bytes PutSample returns are the bytes GetRaw reads, PutRaw
// keeps what it accepts verbatim — a legacy insertion-order file included —
// and leaves the previous bytes when it rejects, blobs live beside samples
// without showing in Keys, deletes of missing entries are no-ops, and the
// operations are counted.
func TestStoreContract(t *testing.T) {
	legacy, err := os.ReadFile(legacyOrder)
	if err != nil {
		t.Fatal(err)
	}
	codec := storage.Int64Codec{}
	for _, c := range contractStores(t) {
		t.Run(c.name, func(t *testing.T) {
			st := c.st
			reg := obs.NewRegistry()
			st.Instrument(reg)

			// Put orders the caller's sample and Get returns that order.
			s := shuffledSample(t, 3)
			want := s.Hist.Clone()
			want.Sort()
			if err := st.Put("ds/p", s); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(s.Hist.Entries(), want.Entries()) {
				t.Error("Put left the caller's sample out of value order")
			}
			got, err := st.Get("ds/p")
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Hist.Entries(), want.Entries()) {
				t.Errorf("Get returned %v, want value order %v", got.Hist, want)
			}
			got.Hist.Insert(987654, 3) // the caller owns what Get returned
			if again, _ := st.Get("ds/p"); again.Hist.Count(987654) != 0 {
				t.Error("Get exposed the store's state")
			}

			// PutSample hands back exactly what GetRaw reads.
			put, err := st.PutSample("ds/q", shuffledSample(t, 5))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := st.GetRaw("ds/q")
			if err != nil || !bytes.Equal(put, raw) {
				t.Fatalf("PutSample returned %d bytes, GetRaw reads %d (%v)", len(put), len(raw), err)
			}
			raw[len(raw)/2] ^= 0xff // the caller owns what GetRaw returned
			if again, _ := st.GetRaw("ds/q"); !bytes.Equal(again, put) {
				t.Error("GetRaw exposed the store's bytes")
			}

			// A legacy insertion-order file is kept verbatim, so a hash over
			// it is unchanged, and Get decodes it in the file's order.
			if err := st.PutRaw("ds/legacy", legacy); err != nil {
				t.Fatal(err)
			}
			if raw, err := st.GetRaw("ds/legacy"); err != nil || !bytes.Equal(raw, legacy) {
				t.Fatalf("GetRaw after PutRaw of the legacy file: %d bytes, %v; want the %d put", len(raw), err, len(legacy))
			}
			decoded, err := storage.DecodeSample(legacy, codec)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := st.Get("ds/legacy"); err != nil || !sameSample(got, decoded) {
				t.Errorf("Get of the legacy file: %v, %v; want %v", got, err, decoded)
			}

			// Corrupt bytes are rejected and the previous ones stay.
			corrupt := slices.Clone(legacy)
			corrupt[len(corrupt)/2] ^= 0x01
			if err := st.PutRaw("ds/legacy", corrupt); err == nil {
				t.Fatal("PutRaw accepted corrupt bytes")
			}
			if raw, _ := st.GetRaw("ds/legacy"); !bytes.Equal(raw, legacy) {
				t.Error("a rejected PutRaw replaced the stored bytes")
			}
			if _, err := st.GetRaw("missing"); !storage.IsNotFound(err) {
				t.Errorf("GetRaw of a missing key: %v", err)
			}

			// Blobs live beside samples, never in Keys.
			if err := st.PutBlob("ds/p", []byte("sidecar")); err != nil {
				t.Fatal(err)
			}
			if got, err := st.GetBlob("ds/p"); err != nil || string(got) != "sidecar" {
				t.Fatalf("GetBlob = %q, %v", got, err)
			}
			if keys, _ := st.Keys(""); !slices.Equal(keys, []string{"ds/legacy", "ds/p", "ds/q"}) {
				t.Errorf("Keys = %v, want the three samples and no blob", keys)
			}
			for i := 0; i < 2; i++ { // the second delete finds nothing, and is no error
				if err := st.DeleteBlob("ds/p"); err != nil {
					t.Fatalf("DeleteBlob #%d: %v", i+1, err)
				}
				if err := st.Delete("ds/q"); err != nil {
					t.Fatalf("Delete #%d: %v", i+1, err)
				}
			}
			if _, err := st.GetBlob("ds/p"); !storage.IsNotFound(err) {
				t.Errorf("GetBlob after delete: %v", err)
			}
			if _, err := st.Get("ds/p"); err != nil {
				t.Errorf("deleting the blob took the sample: %v", err)
			}
			if _, err := st.Get("ds/q"); !storage.IsNotFound(err) {
				t.Errorf("Get after delete: %v", err)
			}

			for name, want := range map[string]int64{"puts": 3, "deletes": 2, "blob_puts": 1,
				"blob_bytes_written": 7, "blob_gets": 2, "blob_deletes": 2} {
				if got := reg.Counter(c.kind + "." + name).Value(); got != want {
					t.Errorf("%s.%s = %d, want %d", c.kind, name, got, want)
				}
			}
		})
	}
}

// FuzzPutRaw: whatever bytes PutRaw accepts, GetRaw returns verbatim and Get
// decodes to the sample DecodeSample makes of them, entry order included, and
// that sample merges beside a partner into strictly ascending value order
// (MergeBeside) — a legacy-order file sorts its survivors first; whatever it
// rejects leaves the key's previous bytes in place, and is what DecodeSample
// rejects.
func FuzzPutRaw(f *testing.F) {
	legacy, err := os.ReadFile(legacyOrder)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)
	corrupt := slices.Clone(legacy)
	corrupt[len(corrupt)/2] ^= 0x01
	f.Add(corrupt)
	f.Add(legacy[:len(legacy)/2])
	f.Add([]byte{})
	codec := storage.Int64Codec{}
	stores := contractStores(f)[:2]
	f.Fuzz(func(t *testing.T, data []byte) {
		want, decodeErr := storage.DecodeSample(data, codec)
		for _, c := range stores {
			// Every run starts from the same stored bytes, so what it covers
			// depends on data alone.
			if err := c.st.PutRaw("ds/p", legacy); err != nil {
				t.Fatal(err)
			}
			if err := c.st.PutRaw("ds/p", data); err != nil {
				if decodeErr == nil {
					t.Fatalf("%s: PutRaw rejected bytes DecodeSample accepts: %v", c.name, err)
				}
				if now, _ := c.st.GetRaw("ds/p"); !bytes.Equal(now, legacy) {
					t.Fatalf("%s: a rejected PutRaw changed the stored bytes", c.name)
				}
				continue
			}
			if decodeErr != nil {
				t.Fatalf("%s: PutRaw accepted bytes DecodeSample rejects: %v", c.name, decodeErr)
			}
			if now, err := c.st.GetRaw("ds/p"); err != nil || !bytes.Equal(now, data) {
				t.Fatalf("%s: GetRaw after an accepted PutRaw: %v, not verbatim", c.name, err)
			}
			got, err := c.st.Get("ds/p")
			if err != nil || !sameSample(got, want) {
				t.Fatalf("%s: Get = %v, %v; DecodeSample gives %v", c.name, got, err, want)
			}
			storage.MergeBeside(t, got)
		}
	})
}
