package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/histogram"
	"samplewh/internal/obs"
)

// v1Encoding rewrites a current (v2, checksummed) encoding as the legacy v1
// layout: same body, no trailing checksum, version byte 1.
func v1Encoding(t *testing.T, data []byte) []byte {
	t.Helper()
	if len(data) < 5+checksumSize {
		t.Fatal("encoding too short")
	}
	legacy := append([]byte{}, data[:len(data)-checksumSize]...)
	legacy[4] = legacyVersion
	return legacy
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	s := sampleFixture(t, 21, 2000)
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at a spread of offsets; every flip must be caught.
	for _, off := range []int{5, len(data) / 3, len(data) / 2, len(data) - 1} {
		bad := append([]byte{}, data...)
		bad[off] ^= 0x40
		if _, err := DecodeSample(bad, Int64Codec{}); err == nil {
			t.Errorf("bit flip at %d accepted", off)
		}
	}
}

func TestDecodeLegacyV1(t *testing.T) {
	s := sampleFixture(t, 22, 1500)
	data, err := EncodeSample(s, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSample(v1Encoding(t, data), Int64Codec{})
	if err != nil {
		t.Fatalf("legacy v1 decode: %v", err)
	}
	if !got.Hist.Equal(s.Hist) || got.ParentSize != s.ParentSize {
		t.Fatal("legacy decode mismatch")
	}
}

// A header may promise any number of entries; decode reserves room for no
// more than the bytes behind it could hold, so a hostile count is an error,
// not an allocation.
func TestDecodeHostileEntryCount(t *testing.T) {
	empty := &core.Sample[int64]{Kind: core.ReservoirKind, Hist: histogram.New[int64](histogram.DefaultSizeModel),
		ParentSize: 10, Config: core.ConfigForNF(64)}
	data, err := EncodeSample(empty, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	body := v1Encoding(t, data)
	if body[len(body)-1] != 0 {
		t.Fatalf("fixture does not end in its zero entry count: % x", body)
	}
	hostile := binary.AppendUvarint(body[:len(body)-1], 1<<50)
	hostile = append(hostile, 2, 2) // one honest entry behind the lie
	if _, err := DecodeSample(hostile, Int64Codec{}); err == nil {
		t.Fatal("decode accepted an entry count the input cannot hold")
	}
}

func TestFileStoreQuarantinesCorruptFile(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st.Instrument(reg)
	if err := st.Put("ds/p1", sampleFixture(t, 23, 1000)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the file on disk: flip a byte in the middle.
	path := filepath.Join(dir, "ds", "p1"+fileExt)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = st.Get("ds/p1")
	if !IsCorrupt(err) {
		t.Fatalf("corrupt read err = %v", err)
	}
	if IsRetryable(err) {
		t.Fatal("corruption classified retryable")
	}

	// The file is renamed aside and the key now reads as missing.
	if _, err := os.Stat(path + corruptExt); err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file still visible under original name")
	}
	if _, err := st.Get("ds/p1"); !IsNotFound(err) {
		t.Fatalf("post-quarantine read err = %v", err)
	}
	if got := reg.Counter("storage.file.quarantines").Value(); got != 1 {
		t.Fatalf("quarantines = %d", got)
	}

	// Keys must not list the quarantined entry.
	keys, err := st.Keys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Fatalf("keys after quarantine = %v", keys)
	}
}

func TestFileStoreKeysOnRemovedRoot(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](filepath.Join(dir, "sub"), Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "sub")); err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys("")
	if err != nil {
		t.Fatalf("Keys on removed root: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestFileStoreGetWrapsOSError(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.Get("nope")
	if !IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OS cause not wrapped: %v", err)
	}
}

func TestFileStoreConcurrentOps(t *testing.T) {
	dir := t.TempDir()
	st, err := NewFileStore[int64](dir, Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	s := sampleFixture(t, 24, 500)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := "ds/p" + string(rune('a'+g))
			s := s.Clone() // Put orders the sample it is handed in place: one each
			for i := 0; i < 20; i++ {
				if err := st.Put(key, s); err != nil {
					t.Error(err)
					return
				}
				st.Keys("ds/")
				if err := st.Delete(key); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPathKeyRoundTrip is the property test for the key codec: every legal
// key must survive pathFor → keyFor unchanged, including unicode,
// percent-escape collisions, and deep slash nesting.
func TestPathKeyRoundTrip(t *testing.T) {
	st := &FileStore[int64]{root: "/r"}
	keys := []string{
		"plain",
		"a/b/c/d/e/f/g/h",
		"with space",
		"per%cent",
		"%%0041", // escape-collision: literal percents followed by hex
		"και-unicode/漢字/🎲",
		"tabs\tand\nnewlines",
		"dots.dashes-under_scores",
		"trailing/",
		"0123456789",
		strings.Repeat("x/", 40) + "leaf",
	}
	for _, key := range keys {
		path, err := st.pathFor(key)
		if err != nil {
			t.Errorf("pathFor(%q): %v", key, err)
			continue
		}
		got, err := st.keyFor(path)
		if err != nil {
			t.Errorf("keyFor(pathFor(%q)): %v", key, err)
			continue
		}
		if got != key {
			t.Errorf("round trip %q -> %q", key, got)
		}
	}
}

func TestPathForRejectsHostileKeys(t *testing.T) {
	st := &FileStore[int64]{root: "/r"}
	for _, key := range []string{"", "..", "../up", "a/../b", "/abs", "a/..", "..hidden/../x"} {
		if _, err := st.pathFor(key); err == nil {
			t.Errorf("hostile key %q accepted", key)
		}
	}
}

// scriptedStore interposes a scripted error sequence over a MemStore, for
// RetryStore unit tests: each operation consumes the next entry (nil =
// success), and operations beyond the script succeed.
type scriptedStore struct {
	inner *MemStore[int64]
	mu    sync.Mutex
	errs  []error
	ops   int
}

func scripted(errs ...error) *scriptedStore {
	return &scriptedStore{inner: NewMemStore[int64](), errs: errs}
}

func (s *scriptedStore) next() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if len(s.errs) == 0 {
		return nil
	}
	err := s.errs[0]
	s.errs = s.errs[1:]
	return err
}

func (s *scriptedStore) attempts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ops
}

func (s *scriptedStore) Put(key string, smp *core.Sample[int64]) error {
	if err := s.next(); err != nil {
		return err
	}
	return s.inner.Put(key, smp)
}

func (s *scriptedStore) Order(smp *core.Sample[int64]) { s.inner.Order(smp) }

func (s *scriptedStore) Get(key string) (*core.Sample[int64], error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return s.inner.Get(key)
}

func (s *scriptedStore) Delete(key string) error {
	if err := s.next(); err != nil {
		return err
	}
	return s.inner.Delete(key)
}

func (s *scriptedStore) Keys(prefix string) ([]string, error) {
	if err := s.next(); err != nil {
		return nil, err
	}
	return s.inner.Keys(prefix)
}

func TestRetryStoreRecoversFromTransients(t *testing.T) {
	boom := Transient(errors.New("blip"))
	st := scripted(boom, boom, nil)
	var slept []time.Duration
	rs := NewRetryStore[int64](st, RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		MaxDelay:    8 * time.Millisecond,
		Jitter:      -1,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	reg := obs.NewRegistry()
	rs.Instrument(reg)
	if err := rs.Put("k", sampleFixture(t, 25, 300)); err != nil {
		t.Fatalf("Put should have succeeded on attempt 3: %v", err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %v, want 2 backoffs", slept)
	}
	// No jitter: exact exponential 1ms, 2ms.
	if slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence = %v", slept)
	}
	if got := reg.Counter("storage.retry.retries").Value(); got != 2 {
		t.Fatalf("retries counter = %d", got)
	}
}

func TestRetryStoreBudgetExhaustion(t *testing.T) {
	boom := Transient(errors.New("always"))
	st := scripted(boom, boom, boom, boom, boom, boom)
	rs := NewRetryStore[int64](st, RetryPolicy{MaxAttempts: 3, Jitter: -1, Sleep: func(time.Duration) {}})
	reg := obs.NewRegistry()
	rs.Instrument(reg)
	err := rs.Put("k", sampleFixture(t, 26, 300))
	if err == nil {
		t.Fatal("exhausted budget returned nil")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted after 3 attempts") {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatal("cause not wrapped")
	}
	if st.attempts() != 3 {
		t.Fatalf("attempts = %d, want 3", st.attempts())
	}
	if got := reg.Counter("storage.retry.exhausted").Value(); got != 1 {
		t.Fatalf("exhausted counter = %d", got)
	}
}

func TestRetryStoreDoesNotRetryPermanent(t *testing.T) {
	cases := []error{
		&NotFoundError{Key: "k"},
		&CorruptError{Key: "k", Err: errors.New("bad crc")},
		errors.New("unclassified"),
	}
	for _, perm := range cases {
		st := scripted(perm, nil)
		rs := NewRetryStore[int64](st, RetryPolicy{Sleep: func(time.Duration) {}})
		_, err := rs.Get("k")
		if !errors.Is(err, perm) {
			t.Fatalf("err = %v, want %v passed through", err, perm)
		}
		if st.attempts() != 1 {
			t.Fatalf("%v retried: %d attempts", perm, st.attempts())
		}
	}
}

func TestRetryStoreMaxDelayCap(t *testing.T) {
	boom := Transient(errors.New("blip"))
	st := scripted(boom, boom, boom, boom, boom, boom, boom, nil)
	var slept []time.Duration
	rs := NewRetryStore[int64](st, RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Jitter:      -1,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	if _, err := rs.Keys(""); err != nil {
		t.Fatal(err)
	}
	for i, d := range slept {
		if d > 4*time.Millisecond {
			t.Fatalf("backoff %d = %v exceeds cap", i, d)
		}
	}
	if last := slept[len(slept)-1]; last != 4*time.Millisecond {
		t.Fatalf("final backoff = %v, want capped 4ms", last)
	}
}

func TestRetryStoreJitterBounds(t *testing.T) {
	boom := Transient(errors.New("blip"))
	errs := make([]error, 40)
	for i := range errs {
		if i%2 == 0 {
			errs[i] = boom
		}
	}
	st := scripted(errs...)
	var slept []time.Duration
	rs := NewRetryStore[int64](st, RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    10 * time.Millisecond,
		Jitter:      0.5,
		Seed:        99,
		Sleep:       func(d time.Duration) { slept = append(slept, d) },
	})
	for i := 0; i < 20; i++ {
		rs.Delete("k")
	}
	if len(slept) == 0 {
		t.Fatal("no backoffs recorded")
	}
	lo, hi := slept[0], slept[0]
	for _, d := range slept {
		if d < 5*time.Millisecond || d > 15*time.Millisecond {
			t.Fatalf("jittered delay %v outside [5ms, 15ms]", d)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo == hi {
		t.Fatal("jitter produced constant delays")
	}
}

func TestErrorClassification(t *testing.T) {
	nf := &NotFoundError{Key: "k"}
	co := &CorruptError{Key: "k", Err: errors.New("crc")}
	tr := Transient(errors.New("net"))
	wrapped := &NotFoundError{Key: "k", Err: os.ErrNotExist}

	if !IsNotFound(nf) || IsNotFound(co) || IsNotFound(tr) {
		t.Fatal("IsNotFound misclassifies")
	}
	if !IsCorrupt(co) || IsCorrupt(nf) || IsCorrupt(tr) {
		t.Fatal("IsCorrupt misclassifies")
	}
	if !IsRetryable(tr) || IsRetryable(nf) || IsRetryable(co) || IsRetryable(nil) {
		t.Fatal("IsRetryable misclassifies")
	}
	if IsRetryable(errors.New("unknown")) {
		t.Fatal("unknown errors must default to permanent")
	}
	if !errors.Is(wrapped, os.ErrNotExist) {
		t.Fatal("NotFoundError does not unwrap its cause")
	}
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
}

// TestBlobSideChannel: both stores — and the retry wrapper over them — put,
// get and delete blobs, count every operation and the bytes written, keep
// blobs out of Keys, and treat deleting a missing blob as done.
func TestBlobSideChannel(t *testing.T) {
	fs, err := NewFileStore[int64](t.TempDir(), Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	type blobStore interface {
		Store[int64]
		BlobStore
		Instrument(*obs.Registry)
	}
	for kind, st := range map[string]blobStore{"storage.mem": NewMemStore[int64](), "storage.file": fs} {
		reg := obs.NewRegistry()
		st.Instrument(reg)
		var bs BlobStore = NewRetryStore[int64](st, RetryPolicy{})
		if err := bs.PutBlob("ds/p1", []byte("sidecar")); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got, err := bs.GetBlob("ds/p1"); err != nil || string(got) != "sidecar" {
			t.Fatalf("%s: GetBlob = %q, %v", kind, got, err)
		}
		if keys, _ := st.Keys(""); len(keys) != 0 {
			t.Fatalf("%s: Keys lists blobs: %v", kind, keys)
		}
		for i := 0; i < 2; i++ { // the second delete finds nothing, and is no error
			if err := bs.DeleteBlob("ds/p1"); err != nil {
				t.Fatalf("%s: DeleteBlob #%d: %v", kind, i+1, err)
			}
		}
		if _, err := bs.GetBlob("ds/p1"); !IsNotFound(err) {
			t.Fatalf("%s: GetBlob after delete: %v", kind, err)
		}
		for name, want := range map[string]int64{"blob_puts": 1, "blob_bytes_written": 7, "blob_gets": 2, "blob_deletes": 2} {
			if got := reg.Counter(kind + "." + name).Value(); got != want {
				t.Errorf("%s.%s = %d, want %d", kind, name, got, want)
			}
		}
	}
	if err := fs.DeleteBlob("../escape"); err == nil {
		t.Fatal("file store deleted a blob outside its root")
	}
}
