package storage

import (
	"os"
	"path/filepath"
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
