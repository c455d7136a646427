package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
)

func openTest(t *testing.T, dir string, opts Options) (*Log[int64], []RecoveredEntry[int64]) {
	t.Helper()
	l, rec, err := Open[int64](dir, storage.Int64Codec{}, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func ingestBatch(t *testing.T, l *Log[int64], ds, part, key string, values []int64, commit bool) {
	t.Helper()
	e, err := l.Begin(ds, part, key, int64(len(values)))
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Append(values); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := e.Seal(int64(len(values))); err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if commit {
		if err := e.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatalf("listSegments: %v", err)
	}
	return names
}

func TestCommittedEntriesAreNotReplayed(t *testing.T) {
	dir := t.TempDir()
	l, rec := openTest(t, dir, Options{})
	if len(rec) != 0 {
		t.Fatalf("fresh journal recovered %d entries", len(rec))
	}
	for i := 0; i < 5; i++ {
		ingestBatch(t, l, "orders", fmt.Sprintf("p%d", i), "", []int64{1, 2, 3}, true)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec) != 0 {
		t.Fatalf("recovered %d committed entries, want 0", len(rec))
	}
	if n := len(segFiles(t, dir)); n != 0 {
		t.Fatalf("%d segments survive a fully committed journal, want 0", n)
	}
}

func TestSealedUncommittedEntriesAreReplayed(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _ := openTest(t, dir, Options{})
	ingestBatch(t, l, "orders", "p0", "", []int64{1, 2}, true)
	ingestBatch(t, l, "orders", "p1", "client-key-1", []int64{10, 20, 30}, false)
	ingestBatch(t, l, "orders", "p2", "", []int64{7}, false)
	// No Close: the crash happens here. SyncAlways already made the seals
	// durable, so a reopen must see both uncommitted batches.
	l2, rec := openTest(t, dir, Options{Registry: reg})
	if len(rec) != 2 {
		t.Fatalf("recovered %d entries, want 2", len(rec))
	}
	if rec[0].Partition != "p1" || rec[1].Partition != "p2" {
		t.Fatalf("recovered partitions %q, %q; want p1, p2", rec[0].Partition, rec[1].Partition)
	}
	if rec[0].Key != "client-key-1" {
		t.Fatalf("idempotency key = %q, want client-key-1", rec[0].Key)
	}
	if rec[0].Expected != 3 || len(rec[0].Values) != 3 || rec[0].Values[2] != 30 {
		t.Fatalf("recovered entry 0 = %+v", rec[0])
	}
	if got := reg.Counter("wal.replays").Value(); got != 2 {
		t.Fatalf("wal.replays = %d, want 2", got)
	}
	// Committing the replayed entries releases their segment.
	for _, re := range rec {
		if err := l2.CommitRecovered(re.ID); err != nil {
			t.Fatalf("CommitRecovered(%d): %v", re.ID, err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l3, rec := openTest(t, dir, Options{})
	defer l3.Close()
	if len(rec) != 0 {
		t.Fatalf("second recovery replayed %d entries, want 0", len(rec))
	}
}

func TestUnsealedEntriesAreDiscarded(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	e, err := l.Begin("orders", "p0", "", 100)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Append([]int64{1, 2, 3}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	_ = l.Sync() // frames are on disk, but no seal — the client got no ack
	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec) != 0 {
		t.Fatalf("recovered %d unsealed entries, want 0", len(rec))
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _ := openTest(t, dir, Options{})
	ingestBatch(t, l, "orders", "keep", "", []int64{1, 2, 3}, false)
	ingestBatch(t, l, "orders", "tear", "", []int64{4, 5, 6}, false)
	names := segFiles(t, dir)
	if len(names) != 1 {
		t.Fatalf("%d segments, want 1", len(names))
	}
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file 3 bytes into the second batch's trailing frames: the
	// crash happened mid-write. The first batch's frames must survive.
	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if rep.Segments[0].Frames != 6 {
		t.Fatalf("frames = %d, want 6", rep.Segments[0].Frames)
	}
	cut := int64(len(data)) - 5
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	l2, rec := openTest(t, dir, Options{Registry: reg})
	defer l2.Close()
	if len(rec) != 1 || rec[0].Partition != "keep" {
		t.Fatalf("recovered %+v, want the single 'keep' batch", rec)
	}
	if got := reg.Counter("wal.truncations").Value(); got != 1 {
		t.Fatalf("wal.truncations = %d, want 1", got)
	}
	if fi, err := os.Stat(path); err == nil {
		if fi.Size() >= cut {
			t.Fatalf("torn segment not truncated: size %d >= %d", fi.Size(), cut)
		}
	}
}

func TestInjectedTornAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("disk on fire")
	// Fail the 4th append: batch one is frames 1-3 (begin, values, seal);
	// the failure tears batch two's begin frame.
	sched := faults.FailNth{Op: faults.OpWalAppend, N: 4, Err: boom}
	l, _ := openTest(t, dir, Options{Schedule: sched})
	ingestBatch(t, l, "orders", "ok", "", []int64{1, 2}, false)
	_, err := l.Begin("orders", "torn", "", 2)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Begin after injected append fault: err = %v, want %v", err, boom)
	}
	// The journal must keep working after the fault: the poisoned segment is
	// rolled away and a fresh one takes over.
	ingestBatch(t, l, "orders", "after", "", []int64{9}, false)
	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec) != 2 {
		t.Fatalf("recovered %d entries, want 2 (ok, after)", len(rec))
	}
	if rec[0].Partition != "ok" || rec[1].Partition != "after" {
		t.Fatalf("recovered %q, %q; want ok, after", rec[0].Partition, rec[1].Partition)
	}
}

func TestInjectedFsyncErrorFailsSeal(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("fsync refused")
	sched := faults.FailNth{Op: faults.OpWalSync, N: 1, Err: boom}
	l, _ := openTest(t, dir, Options{Schedule: sched})
	defer l.Close()
	e, err := l.Begin("orders", "p0", "", 1)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Append([]int64{1}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := e.Seal(1); err == nil || !errors.Is(err, boom) {
		t.Fatalf("Seal under injected fsync fault: err = %v, want %v", err, boom)
	}
	// The next seal syncs cleanly — the fault was transient.
	e2, err := l.Begin("orders", "p1", "", 1)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e2.Append([]int64{2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := e2.Seal(1); err != nil {
		t.Fatalf("Seal after fault cleared: %v", err)
	}
}

func TestSegmentRollAndGC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, _ := openTest(t, dir, Options{Registry: reg})
	l.rollBytes = 256
	var entries []*Entry[int64]
	for i := 0; i < 16; i++ {
		e, err := l.Begin("orders", fmt.Sprintf("p%02d", i), "", 8)
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		if err := e.Append([]int64{int64(i), int64(i * 2), int64(i * 3)}); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := e.Seal(3); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		entries = append(entries, e)
	}
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("%d segments after 16 batches at 256-byte roll threshold, want several", n)
	}
	for _, e := range entries {
		if err := e.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	// Everything committed: only the active segment may remain.
	if n := len(segFiles(t, dir)); n > 1 {
		t.Fatalf("%d segments survive full commit, want <= 1", n)
	}
	if reg.Counter("wal.gc_segments").Value() == 0 {
		t.Fatal("wal.gc_segments did not advance")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAbortDropsEntry(t *testing.T) {
	dir := t.TempDir()
	l, _ := openTest(t, dir, Options{})
	e, err := l.Begin("orders", "p0", "", 4)
	if err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := e.Append([]int64{1, 2}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	e.Abort()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, rec := openTest(t, dir, Options{})
	defer l2.Close()
	if len(rec) != 0 {
		t.Fatalf("recovered %d aborted entries, want 0", len(rec))
	}
}

// TestReplayIdempotencyProperty is the property test of the recovery
// contract: for random batch mixes crashed at a random byte offset,
// (1) recovery never errors, (2) every recovered batch carries exactly the
// values that were journaled for it (never partial, never doubled), and
// (3) recovery is idempotent — recovering twice without committing yields
// the identical result set.
func TestReplayIdempotencyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for round := 0; round < 40; round++ {
		dir := t.TempDir()
		l, _ := openTest(t, dir, Options{})
		l.rollBytes = 512
		want := make(map[string][]int64)
		nBatch := 1 + rng.Intn(8)
		for b := 0; b < nBatch; b++ {
			part := fmt.Sprintf("p%d", b)
			n := 1 + rng.Intn(20)
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = rng.Int63n(1000)
			}
			commit := rng.Intn(3) == 0
			ingestBatch(t, l, "ds", part, "", vals, commit)
			if !commit {
				want[part] = vals
			}
		}
		if err := l.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		// Crash: chop a random suffix off the newest segment.
		names := segFiles(t, dir)
		if len(names) > 0 && rng.Intn(2) == 0 {
			path := filepath.Join(dir, names[len(names)-1])
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Int63n(fi.Size() + 1)
			if err := os.Truncate(path, cut); err != nil {
				t.Fatal(err)
			}
		}
		check := func(pass string, rec []RecoveredEntry[int64]) map[string]int {
			got := make(map[string]int)
			for _, re := range rec {
				got[re.Partition]++
				vals, ok := want[re.Partition]
				if !ok {
					// Truncation can only lose batches, never resurrect
					// committed ones — unless the commit frame itself was
					// chopped off, in which case the replay is the correct
					// at-least-once outcome and values must still be exact.
					vals = nil
				}
				if vals != nil {
					if len(vals) != len(re.Values) {
						t.Fatalf("round %d %s: partition %s recovered %d values, want %d",
							round, pass, re.Partition, len(re.Values), len(vals))
					}
					for i := range vals {
						if vals[i] != re.Values[i] {
							t.Fatalf("round %d %s: partition %s value[%d] = %d, want %d",
								round, pass, re.Partition, i, re.Values[i], vals[i])
						}
					}
				}
				if int64(len(re.Values)) != re.Expected {
					t.Fatalf("round %d %s: partition %s sealed with %d values but expected %d",
						round, pass, re.Partition, len(re.Values), re.Expected)
				}
			}
			for part, n := range got {
				if n != 1 {
					t.Fatalf("round %d %s: partition %s recovered %d times", round, pass, part, n)
				}
			}
			return got
		}
		l1, rec1 := openTest(t, dir, Options{})
		got1 := check("first", rec1)
		if err := l1.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		l2, rec2 := openTest(t, dir, Options{})
		got2 := check("second", rec2)
		if err := l2.Close(); err != nil {
			t.Fatalf("round %d: Close: %v", round, err)
		}
		if len(got1) != len(got2) {
			t.Fatalf("round %d: recovery not idempotent: %v then %v", round, got1, got2)
		}
		for part := range got1 {
			if got2[part] != got1[part] {
				t.Fatalf("round %d: recovery not idempotent for %s", round, part)
			}
		}
	}
}

func TestInspectReportsTornAndOrphanedSegments(t *testing.T) {
	dir := t.TempDir()
	// Segment 1: fully committed batches (orphaned once a later segment
	// exists). Force tiny segments so each lifecycle lands where we want it.
	l, _ := openTest(t, dir, Options{})
	l.rollBytes = 1
	e, err := l.Begin("ds", "committed", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]int64{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Seal(1); err != nil {
		t.Fatal(err)
	}
	// Begin the next entry BEFORE committing the first, so the first
	// segment survives (commit-time GC only fires on the leading segment
	// when it is not active; a new active segment must exist first).
	e2, err := l.Begin("ds", "pending", "k2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.Append([]int64{2}); err != nil {
		t.Fatal(err)
	}
	if err := e2.Seal(1); err != nil {
		t.Fatal(err)
	}
	// Commit entry 1: its commit frame lands in segment 2 (the active one)
	// and GC removes segment 1. To leave an orphaned file on disk for fsck
	// to find — the "GC crashed mid-sweep" shape — copy segment 1 aside
	// first and resurrect it afterwards.
	seg1 := segFiles(t, dir)[0]
	seg1Path := filepath.Join(dir, seg1)
	data, err := os.ReadFile(seg1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Commit(); err != nil {
		t.Fatal(err)
	}
	// A third batch rolls to segment 3 (1-byte roll threshold), giving the
	// torn-tail tear a victim that is not entry 1's commit frame.
	e3, err := l.Begin("ds", "torn", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.Append([]int64{3}); err != nil {
		t.Fatal(err)
	}
	if err := e3.Seal(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1Path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	names := segFiles(t, dir)
	last := filepath.Join(dir, names[len(names)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	rep, err := Inspect(dir)
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if len(rep.Segments) != len(names) {
		t.Fatalf("Inspect saw %d segments, want %d", len(rep.Segments), len(names))
	}
	var tornSeen, orphanSeen bool
	for _, s := range rep.Segments {
		if s.Torn {
			tornSeen = true
			removed, err := TruncateTorn(s)
			if err != nil {
				t.Fatalf("TruncateTorn: %v", err)
			}
			if removed == 0 {
				t.Fatal("TruncateTorn removed nothing from a torn segment")
			}
		}
		if rep.Orphaned(s) && s.Name == seg1 {
			orphanSeen = true
		}
	}
	if !tornSeen {
		t.Fatal("Inspect missed the torn tail")
	}
	if !orphanSeen {
		t.Fatal("Inspect missed the orphaned (fully committed) segment")
	}
	// After the -fix truncation the directory inspects clean.
	rep2, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep2.Segments {
		if s.Torn {
			t.Fatalf("segment %s still torn after TruncateTorn", s.Name)
		}
	}
}

// codecOnly is Int64Codec behind another type, so a journal over it encodes
// values frames through the ValueCodec interface, a call per value.
type codecOnly struct{ storage.Int64Codec }

// TestInt64FramesMatchCodec: a journal over storage.Int64Codec writes its
// values frames without the per-value codec call, and every byte of its
// segments equals what the codec path writes — for 0, ±1, the int64 extremes
// and random values, in chunks of one, many and every length between — and
// both replay the same values.
func TestInt64FramesMatchCodec(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	chunks := [][]int64{
		{0}, {1}, {-1}, {math.MinInt64}, {math.MaxInt64},
		{0, 1, -1, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1},
	}
	for _, n := range []int{2, 63, 64, 65, 4096} {
		c := make([]int64, n)
		for i := range c {
			c[i] = int64(r.Uint64()) >> uint(r.Intn(64))
		}
		chunks = append(chunks, c)
	}
	var want []int64
	for _, c := range chunks {
		want = append(want, c...)
	}
	journal := func(l *Log[int64]) []byte {
		t.Helper()
		e, err := l.Begin("ds", "p", "key", int64(len(want)))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range chunks {
			if err := e.Append(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Seal(int64(len(want))); err != nil {
			t.Fatal(err)
		}
		names := segFiles(t, l.Dir())
		if len(names) != 1 {
			t.Fatalf("segments %v, want one", names)
		}
		b, err := os.ReadFile(filepath.Join(l.Dir(), names[0]))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return b
	}
	fast, _ := openTest(t, t.TempDir(), Options{})
	slow, _, err := Open[int64](t.TempDir(), codecOnly{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.varints || slow.varints {
		t.Fatalf("varints: Int64Codec %v, wrapped codec %v", fast.varints, slow.varints)
	}
	fastBytes, slowBytes := journal(fast), journal(slow)
	if !bytes.Equal(fastBytes, slowBytes) {
		t.Fatalf("segments differ: %d bytes direct, %d through the codec", len(fastBytes), len(slowBytes))
	}
	for _, dir := range []string{fast.Dir(), slow.Dir()} {
		l, rec := openTest(t, dir, Options{})
		if len(rec) != 1 || !slices.Equal(rec[0].Values, want) {
			t.Fatalf("%s replays %d entries, want one of %d values", dir, len(rec), len(want))
		}
		l.Close()
	}
}
