package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"samplewh/internal/storage"
)

// fuzzSegment is the one segment file a fuzz input becomes.
const fuzzSegment = "0000000000000001" + segExt

// FuzzWALRecover holds recovery to the journal's contract on arbitrary
// segment bytes: a crash mid-append, a flipped bit, a frame no writer makes.
// Inspect and Open never panic; a segment's valid prefix never passes its
// size; every entry Open recovers is one Inspect lists as pending; and
// recovery is a fixed point — opening again, or opening after fsck's
// TruncateTorn, recovers the same entries. The hinted-handoff journal is the
// same Log, so its frames are covered too.
func FuzzWALRecover(f *testing.F) {
	journal := realJournal(f)
	f.Add(journal)
	f.Add(append(append([]byte(nil), journal...), journal[headerSize:len(journal)/2]...)) // a torn tail
	flipped := append([]byte(nil), journal...)
	flipped[len(flipped)-1] ^= 0x40 // the last frame's CRC
	f.Add(flipped)
	f.Add(journal[:headerSize])
	f.Fuzz(func(t *testing.T, data []byte) {
		inspected := segmentDir(t, data)
		rep, ierr := Inspect(inspected)
		if ierr == nil {
			for _, s := range rep.Segments {
				if s.ValidBytes > s.Size {
					t.Fatalf("segment %s: ValidBytes %d > Size %d", s.Name, s.ValidBytes, s.Size)
				}
			}
		}

		opened := segmentDir(t, data)
		first, err := recoverOnce(opened)
		if err != nil {
			return // refused whole: nothing was recovered to check
		}
		if ierr != nil {
			t.Fatalf("Open recovered what Inspect refused: %v", ierr)
		}
		pending := map[uint64]bool{}
		for _, e := range rep.Pending() {
			pending[e.ID] = true
		}
		for _, e := range first {
			if !pending[e.ID] {
				t.Fatalf("Open recovered entry %d, which Inspect does not list as pending", e.ID)
			}
		}
		again, err := recoverOnce(opened)
		if err != nil || !reflect.DeepEqual(again, first) {
			t.Fatalf("reopening recovered %v (%v), first open %v", again, err, first)
		}

		for _, s := range rep.Segments {
			if _, err := TruncateTorn(s); err != nil {
				t.Fatal(err)
			}
		}
		fixed, err := recoverOnce(inspected)
		if err != nil || !reflect.DeepEqual(fixed, first) {
			t.Fatalf("after TruncateTorn recovered %v (%v), without it %v", fixed, err, first)
		}
	})
}

// segmentDir writes data as the one segment of a fresh journal directory.
func segmentDir(t *testing.T, data []byte) string {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, fuzzSegment), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recoverOnce opens the journal at dir and closes it again, returning what
// recovery found.
func recoverOnce(dir string) ([]RecoveredEntry[int64], error) {
	l, rec, err := Open[int64](dir, storage.Int64Codec{}, Options{})
	if err != nil {
		return nil, err
	}
	return rec, l.Close()
}

// realJournal writes a journal as ingest does — a committed batch, two
// sealed-uncommitted ones (one keyed, one empty) and an unsealed one — and
// returns its segment's bytes.
func realJournal(f *testing.F) []byte {
	dir := f.TempDir()
	l, _, err := Open[int64](dir, storage.Int64Codec{}, Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer l.Close()
	for i, b := range []struct {
		key    string
		values []int64
		seal   bool
		commit bool
	}{
		{"", []int64{5, -3, 1 << 40}, true, true},
		{"key-1", []int64{7, 7, 0, -1}, true, false},
		{"", nil, true, false},
		{"key-3", []int64{2}, false, false},
	} {
		e, err := l.Begin("ds", "p"+string(rune('0'+i)), b.key, int64(len(b.values)))
		if err != nil {
			f.Fatal(err)
		}
		if err := e.Append(b.values); err != nil {
			f.Fatal(err)
		}
		if !b.seal {
			continue
		}
		if err := e.Seal(int64(len(b.values))); err != nil {
			f.Fatal(err)
		}
		if b.commit {
			if err := e.Commit(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := l.Sync(); err != nil {
		f.Fatal(err)
	}
	names, err := listSegments(dir)
	if err != nil || len(names) != 1 {
		f.Fatalf("journal segments %v (%v), want one", names, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, names[0]))
	if err != nil {
		f.Fatal(err)
	}
	copied := f.TempDir()
	if err := os.WriteFile(filepath.Join(copied, fuzzSegment), data, 0o644); err != nil {
		f.Fatal(err)
	}
	if rec, err := recoverOnce(copied); err != nil || len(rec) != 2 {
		f.Fatalf("the seed journal recovers %d entries (%v), want the 2 sealed-uncommitted", len(rec), err)
	}
	return data
}
