package fullwh

import (
	"context"
	"math"
	"testing"

	"samplewh/internal/core"
	"samplewh/internal/estimate"
	"samplewh/internal/storage"
	"samplewh/internal/warehouse"
)

// yieldRange produces the integers [lo, hi).
func yieldRange(lo, hi int64) func(func(int64) bool) {
	return func(yield func(int64) bool) {
		for v := lo; v < hi; v++ {
			if !yield(v) {
				return
			}
		}
	}
}

func TestIngestAndScan(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Ingest("orders", "p1", yieldRange(0, 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("ingested %d", n)
	}
	var sum int64
	if err := w.Scan("orders", func(v int64) bool { sum += v; return true }); err != nil {
		t.Fatal(err)
	}
	if sum != 999*1000/2 {
		t.Fatalf("scan sum %d", sum)
	}
	size, err := w.Size("orders")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1000 {
		t.Fatalf("size %d", size)
	}
}

func TestScanEarlyStop(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Ingest("d", "p", yieldRange(0, 100), nil); err != nil {
		t.Fatal(err)
	}
	seen := 0
	if err := w.Scan("d", func(v int64) bool { seen++; return seen < 10 }); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("early stop saw %d", seen)
	}
}

func TestPartitionScoping(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest("d", "a", yieldRange(0, 100), nil)
	w.Ingest("d", "b", yieldRange(100, 300), nil)
	cnt, err := w.Count("d", func(v int64) bool { return true }, "b")
	if err != nil {
		t.Fatal(err)
	}
	if cnt != 200 {
		t.Fatalf("scoped count %d", cnt)
	}
	parts, err := w.Partitions("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0] != "a" {
		t.Fatalf("partitions %v", parts)
	}
}

func TestOpenRecoversCatalog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest("d", "p1", yieldRange(0, 50), nil)
	w.Ingest("d", "p2", yieldRange(50, 80), nil)
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := w2.Partitions("d")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("recovered %v", parts)
	}
	size, err := w2.Size("d")
	if err != nil {
		t.Fatal(err)
	}
	if size != 80 {
		t.Fatalf("size %d", size)
	}
}

func TestDelete(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest("d", "p1", yieldRange(0, 50), nil)
	w.Ingest("d", "p2", yieldRange(50, 80), nil)
	if err := w.Delete("d", "p1"); err != nil {
		t.Fatal(err)
	}
	size, err := w.Size("d")
	if err != nil {
		t.Fatal(err)
	}
	if size != 30 {
		t.Fatalf("size after delete %d", size)
	}
	if err := w.Delete("d", "p1"); err == nil {
		t.Fatal("double delete accepted")
	}
	if err := w.Delete("nope", "p1"); err == nil {
		t.Fatal("unknown data set accepted")
	}
}

func TestValidationErrors(t *testing.T) {
	w, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct{ ds, p string }{
		{"", "p"}, {"d", ""}, {"a/b", "p"}, {"d", "../x"},
	} {
		if _, err := w.Ingest(bad.ds, bad.p, yieldRange(0, 1), nil); err == nil {
			t.Errorf("hostile names %q/%q accepted", bad.ds, bad.p)
		}
	}
	w.Ingest("d", "p", yieldRange(0, 10), nil)
	if _, err := w.Ingest("d", "p", yieldRange(0, 10), nil); err == nil {
		t.Error("duplicate partition accepted")
	}
	if err := w.Scan("nope", func(int64) bool { return true }); err == nil {
		t.Error("scan of unknown data set accepted")
	}
}

func TestShadowPipelineEstimatesMatchTruth(t *testing.T) {
	full, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := warehouse.New[int64](storage.NewMemStore[int64](), 7)
	cfg := warehouse.DatasetConfig{Algorithm: warehouse.AlgHR, Core: core.ConfigForNF(2048)}
	if err := sw.CreateDataset("orders", cfg); err != nil {
		t.Fatal(err)
	}
	sh := NewShadow(full, sw)

	for p := int64(0); p < 4; p++ {
		n, err := sh.Ingest("orders", string(rune('a'+p)), 0, yieldRange(p*25000, (p+1)*25000))
		if err != nil {
			t.Fatal(err)
		}
		if n != 25000 {
			t.Fatalf("ingested %d", n)
		}
	}

	// Exact answer from the full warehouse.
	truth, err := full.Count("orders", func(v int64) bool { return v%7 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	// Approximate answer from the shadow sample warehouse.
	m, err := sw.MergedSampleContext(context.Background(), "orders")
	if err != nil {
		t.Fatal(err)
	}
	est, err := estimate.New(m).Count(func(v int64) bool { return v%7 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-float64(truth)) > 6*est.StdErr+1 {
		t.Fatalf("estimate %v ± %v, truth %d", est.Value, est.StdErr, truth)
	}

	// Roll out one partition from both sides; parents must agree.
	if err := sh.RollOut("orders", "a"); err != nil {
		t.Fatal(err)
	}
	fullSize, err := full.Size("orders")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sw.MergedSampleContext(context.Background(), "orders")
	if err != nil {
		t.Fatal(err)
	}
	if m2.ParentSize != fullSize {
		t.Fatalf("shadow parent %d != full size %d", m2.ParentSize, fullSize)
	}
}

func TestShadowIngestHBRequiresExpected(t *testing.T) {
	full, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sw := warehouse.New[int64](storage.NewMemStore[int64](), 8)
	cfg := warehouse.DatasetConfig{Algorithm: warehouse.AlgHB, Core: core.ConfigForNF(64)}
	if err := sw.CreateDataset("d", cfg); err != nil {
		t.Fatal(err)
	}
	sh := NewShadow(full, sw)
	if _, err := sh.Ingest("d", "p", 0, yieldRange(0, 100)); err == nil {
		t.Fatal("HB shadow ingest without expectedN accepted")
	}
	if _, err := sh.Ingest("d", "p", 100, yieldRange(0, 100)); err != nil {
		t.Fatal(err)
	}
}
