package warehouse

import (
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/storage"
)

// TestOpenPreservesRecordedHash pins the property fsck pass 6 depends on:
// reopening a warehouse carries the durable manifest's content hashes forward
// rather than re-sealing whatever bytes the store holds now. Re-sealing would
// overwrite the only evidence that a stored sample diverged from its roll-in
// seal before the audit could witness it.
func TestOpenPreservesRecordedHash(t *testing.T) {
	st := storage.NewMemStore[int64]().WithCodec(storage.Int64Codec{})
	w, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DatasetConfig{Algorithm: AlgHR, Core: core.ConfigForNF(64)}
	if err := w.CreateDataset("ds", cfg); err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("ds", "p1", externalSample(t, 64, 3, 0, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := w.RollIn("ds", "p2", externalSample(t, 64, 4, 5000, 9000)); err != nil {
		t.Fatal(err)
	}
	sealed, err := w.PartitionHashes("ds")
	if err != nil {
		t.Fatal(err)
	}

	// Tamper behind the warehouse's back: overwrite p1's stored sample with
	// p2's. The bytes still decode and pass codec CRC — only the recorded
	// content hash can tell the difference.
	s2, err := st.Get("ds/p2")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("ds/p1", s2); err != nil {
		t.Fatal(err)
	}

	// Reopen, as every swcli and swd start does.
	w2, _, err := Open[int64](st, 5)
	if err != nil {
		t.Fatal(err)
	}

	after, err := w2.PartitionHashes("ds")
	if err != nil {
		t.Fatal(err)
	}
	if after["p1"] != sealed["p1"] || after["p2"] != sealed["p2"] {
		t.Fatalf("reopen re-sealed hashes: before=%v after=%v", sealed, after)
	}

	rep, err := FsckHashes(st, false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 2 || len(rep.Mismatched) != 1 || rep.Mismatched[0] != "ds/p1" {
		t.Fatalf("tamper not detected after reopen: %+v", rep)
	}

	// -fix re-seals from the stored bytes; the audit then comes back clean.
	if rep, err = FsckHashes(st, true); err != nil {
		t.Fatal(err)
	}
	if len(rep.Fixed) != 1 || rep.Fixed[0] != "ds/p1" {
		t.Fatalf("fix did not re-seal ds/p1: %+v", rep)
	}
	if rep, err = FsckHashes(st, false); err != nil {
		t.Fatal(err)
	}
	if rep.Problems() != 0 {
		t.Fatalf("defects survived -fix: %+v", rep)
	}
}
