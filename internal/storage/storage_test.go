package storage

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/randx"
)

// sampleFixture builds a finalized HR sample for round-trip tests.
func sampleFixture(t *testing.T, seed uint64, n int64) *core.Sample[int64] {
	t.Helper()
	hr := core.NewHR[int64](core.ConfigForNF(64), randx.New(seed))
	for v := int64(0); v < n; v++ {
		hr.Feed(v % (n/2 + 1))
	}
	s, err := hr.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, n := range []int64{10, 1000, 5000} {
		s := sampleFixture(t, uint64(n), n)
		data, err := EncodeSample(s, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeSample(data, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != s.Kind || got.ParentSize != s.ParentSize || got.Q != s.Q {
			t.Fatalf("metadata mismatch: %v vs %v", got, s)
		}
		if got.Config != s.Config {
			t.Fatalf("config mismatch: %+v vs %+v", got.Config, s.Config)
		}
		if !got.Hist.Equal(s.Hist) {
			t.Fatalf("histogram mismatch")
		}
	}
}

func TestEncodeDecodeStringValues(t *testing.T) {
	h := histogram.New[string](histogram.SizeModel{ValueBytes: 16, CountBytes: 4})
	h.Insert("hello", 3)
	h.Insert("", 1) // empty string edge case
	h.Insert("worldly-value-with-length", 7)
	s := &core.Sample[string]{
		Kind:       core.BernoulliKind,
		Hist:       h,
		ParentSize: 100,
		Q:          0.25,
		Config: core.Config{
			FootprintBytes: 1600,
			SizeModel:      histogram.SizeModel{ValueBytes: 16, CountBytes: 4},
			ExceedProb:     0.001,
		},
	}
	data, err := EncodeSample(s, StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSample(data, StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hist.Equal(s.Hist) {
		t.Fatal("string histogram mismatch")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := sampleFixture(t, 1, 1000)
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     {},
		"short":     data[:4],
		"bad magic": append([]byte{0, 0, 0, 0}, data[4:]...),
		"bad ver":   append(append([]byte{}, data[:4]...), append([]byte{99}, data[5:]...)...),
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte{}, data...), 1, 2, 3),
	}
	for name, bad := range cases {
		if _, err := DecodeSample(bad, Int64Codec{}); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestEncodeNilSample(t *testing.T) {
	if _, err := EncodeSample[int64](nil, Int64Codec{}); err == nil {
		t.Fatal("nil sample accepted")
	}
}

func testStore(t *testing.T, st Store[int64]) {
	t.Helper()
	s1 := sampleFixture(t, 1, 1000)
	s2 := sampleFixture(t, 2, 2000)
	if err := st.Put("ds/a/p1", s1); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ds/a/p2", s2); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ds/b/p1", s2); err != nil {
		t.Fatal(err)
	}

	got, err := st.Get("ds/a/p1")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hist.Equal(s1.Hist) || got.ParentSize != s1.ParentSize {
		t.Fatal("Get returned different sample")
	}

	// Mutating the returned sample must not corrupt the store.
	got.Hist.Insert(987654, 3)
	again, err := st.Get("ds/a/p1")
	if err != nil {
		t.Fatal(err)
	}
	if again.Hist.Count(987654) != 0 {
		t.Fatal("store exposed shared state")
	}

	if _, err := st.Get("missing"); !IsNotFound(err) {
		t.Fatalf("missing key error = %v", err)
	}

	keys, err := st.Keys("ds/a/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "ds/a/p1" || keys[1] != "ds/a/p2" {
		t.Fatalf("Keys = %v", keys)
	}
	all, err := st.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("all keys = %v", all)
	}

	// Overwrite.
	if err := st.Put("ds/a/p1", s2); err != nil {
		t.Fatal(err)
	}
	got, err = st.Get("ds/a/p1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ParentSize != s2.ParentSize {
		t.Fatal("overwrite did not replace")
	}

	// Delete (including idempotence).
	if err := st.Delete("ds/a/p1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("ds/a/p1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Get("ds/a/p1"); !IsNotFound(err) {
		t.Fatal("deleted key still present")
	}
}

func TestMemStore(t *testing.T) {
	testStore(t, NewMemStore[int64](Int64Codec{}))
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, st)
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleFixture(t, 9, 3000)
	if err := st.Put("orders/price/2006-01-02", s); err != nil {
		t.Fatal(err)
	}
	st2, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Get("orders/price/2006-01-02")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Hist.Equal(s.Hist) {
		t.Fatal("reopened store lost data")
	}
}

func TestFileStoreKeyEscaping(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleFixture(t, 3, 500)
	weird := "data set:with spaces/και-unicode"
	if err := st.Put(weird, s); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != weird {
		t.Fatalf("escaped key round trip failed: %v", keys)
	}
	if _, err := st.Get(weird); err != nil {
		t.Fatal(err)
	}
}

func TestFileStoreRejectsHostileKeys(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleFixture(t, 4, 500)
	for _, key := range []string{"", "../escape", "/abs/path", "a/../../b"} {
		if err := st.Put(key, s); err == nil {
			t.Errorf("hostile key %q accepted", key)
		}
		if err := st.DeleteBlob(key); err == nil {
			t.Errorf("hostile blob name %q accepted", key)
		}
	}
}

func TestFileStoreNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := st.Put("k", sampleFixture(t, uint64(i), 500)); err != nil {
			t.Fatal(err)
		}
	}
	var tmps int
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Base(path)[0] == '.' {
			tmps++
		}
		return nil
	})
	if tmps != 0 {
		t.Fatalf("%d temp files left behind", tmps)
	}
}

func TestInt64CodecRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 1 << 40, -(1 << 40), 9223372036854775807, -9223372036854775808} {
		buf := Int64Codec{}.Append(nil, v)
		got, n, err := Int64Codec{}.Read(buf)
		if err != nil || n != len(buf) || got != v {
			t.Fatalf("round trip of %d: got %d n=%d err=%v", v, got, n, err)
		}
	}
	if _, _, err := (Int64Codec{}).Read(nil); err == nil {
		t.Fatal("empty varint accepted")
	}
}

func TestStringCodecErrors(t *testing.T) {
	buf := StringCodec{}.Append(nil, "hello")
	if _, _, err := (StringCodec{}).Read(buf[:2]); err == nil {
		t.Fatal("truncated string accepted")
	}
	if _, _, err := (StringCodec{}).Read(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
}

func BenchmarkEncodeSample(b *testing.B) {
	hr := core.NewHR[int64](core.ConfigForNF(8192), randx.New(1))
	for v := int64(0); v < 100000; v++ {
		hr.Feed(v)
	}
	s, _ := hr.Finalize()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeSample(s, Int64Codec{}); err != nil {
			b.Fatal(err)
		}
	}
}

// withCRC seals an encoding's body (everything but its checksum) cut to n
// bytes under a fresh checksum, so the cut reaches the entry loop.
func withCRC(data []byte, n int) []byte {
	body := bytes.Clone(data[:n])
	return binary.BigEndian.AppendUint32(body, crc32.Checksum(body, crcTable))
}

// stringFixture is an exhaustive sample of n strings prefix-000, prefix-001,
// …, with counts cycling 1–3: two fixtures of one n and prefix length have
// the same layout and differ in every value.
func stringFixture(prefix string, n int) *core.Sample[string] {
	model := histogram.SizeModel{ValueBytes: 16, CountBytes: 4}
	h := histogram.New[string](model)
	for i := 0; i < n; i++ {
		h.Insert(fmt.Sprintf("%s-%03d", prefix, i), int64(i%3+1))
	}
	return &core.Sample[string]{Kind: core.Exhaustive, Hist: h, ParentSize: h.Size(),
		Config: core.Config{FootprintBytes: 1 << 20, SizeModel: model, ExceedProb: 0.001}}
}

// firstCount decodes data and returns its first entry's count.
func firstCount[V cmp.Ordered](data []byte, vc ValueCodec[V]) (int64, error) {
	s, err := DecodeSample(data, vc)
	if err != nil {
		return 0, err
	}
	return s.Hist.Entry(0).Count, nil
}

// TestDecodeCountEdges decodes the counts whose varint widths the entry loop
// reads differently — one byte up to 63, two from 64, six at 2⁴⁰ — and
// rejects a count below one, a count past the parent, and a file cut inside
// a count or a value, each with a valid checksum over the cut body.
func TestDecodeCountEdges(t *testing.T) {
	body := func(data []byte) int { return len(data) - checksumSize }
	big := encodeEntries(1<<41, 300, 1<<40) // the count's varint is the last 6 body bytes
	bigValue := encodeEntries(10, 1<<40, 1) // a 6-byte value, then the count 0x02
	str, err := EncodeSample(stringFixture("abcdef", 1), StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	zero, negOne := encodeEntries(10, 5, 1), encodeEntries(10, 5, 1)
	zero[body(zero)-1], negOne[body(negOne)-1] = 0x00, 0x01
	int64s := func(data []byte) (int64, error) { return firstCount(data, Int64Codec{}) }
	for _, tc := range []struct {
		name   string
		data   []byte
		decode func([]byte) (int64, error) // int64s unless set
		count  int64                       // the first entry's count when accepted
		err    string                      // a substring of the rejection otherwise
	}{
		{name: "count 1", data: encodeEntries(10, 5, 1), count: 1},
		{name: "count 63", data: encodeEntries(100, 5, 63), count: 63},
		{name: "count 64", data: encodeEntries(100, 5, 64), count: 64},
		{name: "count 2^40", data: big, count: 1 << 40},
		{name: "count byte 0x00", data: withCRC(zero, body(zero)), err: "entry 0 has count 0"},
		{name: "count byte 0x01", data: withCRC(negOne, body(negOne)), err: "entry 0 has count -1"},
		{name: "count past the parent", data: encodeEntries(10, 5, 11), err: "past parent size 10"},
		{name: "cut before a one-byte count", data: withCRC(zero, body(zero)-1), err: "entry 0 count"},
		{name: "cut in a six-byte count", data: withCRC(big, body(big)-3), err: "entry 0 count"},
		{name: "cut in a value", data: withCRC(bigValue, body(bigValue)-2), err: "malformed varint value"},
		{name: "cut in a string value", data: withCRC(str, body(str)-3), err: "truncated string value",
			decode: func(data []byte) (int64, error) { return firstCount(data, StringCodec{}) }},
	} {
		if tc.decode == nil {
			tc.decode = int64s
		}
		got, err := tc.decode(tc.data)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err == "" && got != tc.count:
			t.Errorf("%s: decoded count %d, want %d", tc.name, got, tc.count)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.err)
		}
	}
}

// sameSums checks that the size and footprint the decoder summed while it
// read are what FromEntries sums over the entries it kept.
func sameSums[V cmp.Ordered](t *testing.T, name string, data []byte, vc ValueCodec[V]) {
	t.Helper()
	s, err := DecodeSample(data, vc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := histogram.FromEntries(s.Hist.Model(), s.Hist.Entries())
	if s.Hist.Size() != want.Size() || s.Hist.Footprint() != want.Footprint() {
		t.Errorf("%s: decoded size %d footprint %d, FromEntries %d and %d",
			name, s.Hist.Size(), s.Hist.Footprint(), want.Size(), want.Footprint())
	}
}

func TestDecodeSumsMatchFromEntries(t *testing.T) {
	hb := core.NewHB[int64](core.ConfigForNF(64), 5000, randx.New(3))
	for v := int64(0); v < 5000; v++ {
		hb.Feed(v % 700)
	}
	samples := map[string]*core.Sample[int64]{"exhaustive": sampleFixture(t, 4, 10), "HR": sampleFixture(t, 5, 5000)}
	var err error
	if samples["HB"], err = hb.Finalize(); err != nil {
		t.Fatal(err)
	}
	for name, s := range samples {
		want := map[string]core.Kind{"exhaustive": core.Exhaustive, "HR": core.ReservoirKind, "HB": core.BernoulliKind}[name]
		if s.Kind != want || s.Hist.Size() == int64(s.Hist.Distinct()) {
			t.Fatalf("%s fixture is a %v sample of %d rows in %d entries, want a %v one with repeats",
				name, s.Kind, s.Hist.Size(), s.Hist.Distinct(), want)
		}
		data, err := EncodeSample(s, Int64Codec{})
		if err != nil {
			t.Fatal(err)
		}
		sameSums(t, name, data, Int64Codec{})
	}
	legacy, err := os.ReadFile(legacyOrderFixture)
	if err != nil {
		t.Fatal(err)
	}
	sameSums(t, "legacy order", legacy, Int64Codec{})
	str, err := EncodeSample(stringFixture("s", 50), StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	sameSums(t, "strings", str, StringCodec{})
}

// getsOwnBytes puts a and b into a file store, then gets a, gets b — whose
// read reuses the buffer a's was decoded from, whenever the pool hands it
// back — and checks that a still encodes to what was stored: a value that
// aliased the read buffer would now hold b's bytes.
func getsOwnBytes[V cmp.Ordered](t *testing.T, vc ValueCodec[V], a, b *core.Sample[V]) {
	t.Helper()
	st, err := NewFileStore[V](t.TempDir(), vc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.PutSample("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("b", b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := st.Get("a")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Get("b"); err != nil {
			t.Fatal(err)
		}
		again, err := EncodeSample(got, vc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("get %d: sample a changed when b was read: %v", i, got.Hist)
		}
	}
}

func TestFileStoreGetOwnsItsSample(t *testing.T) {
	getsOwnBytes(t, Int64Codec{}, sampleFixture(t, 1, 1000), sampleFixture(t, 2, 1000))
	getsOwnBytes(t, StringCodec{}, stringFixture("a", 200), stringFixture("b", 200))
}

// TestFileStoreConcurrentGets reads several keys from several goroutines at
// once, each sample checked against its stored bytes after the next get: run
// it under -race -count=10 after touching Get's buffer handling.
func TestFileStoreConcurrentGets(t *testing.T) {
	st, err := NewFileStore[string](t.TempDir(), StringCodec{})
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	stored := make([][]byte, len(keys))
	for i, k := range keys {
		if stored[i], err = st.PutSample(k, stringFixture(fmt.Sprintf("v%d", i), 100+20*i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev *core.Sample[string]
			prevKey := -1
			for i := 0; i < 50; i++ {
				k := (g + i) % len(keys)
				got, err := st.Get(keys[k])
				if err != nil {
					t.Error(err)
					return
				}
				if prev != nil {
					if again, err := EncodeSample(prev, StringCodec{}); err != nil || !bytes.Equal(again, stored[prevKey]) {
						t.Errorf("goroutine %d: %s changed after later gets (%v)", g, keys[prevKey], err)
						return
					}
				}
				prev, prevKey = got, k
			}
		}(g)
	}
	wg.Wait()
}
