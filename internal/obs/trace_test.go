package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.Spans() != 0 {
		t.Fatal("nil trace accessors not zero")
	}
	tr.Finish()
	if snap := tr.Snapshot(); snap.Name != "" {
		t.Fatalf("nil trace snapshot = %+v", snap)
	}
	var sp *Span
	child := sp.Start("x")
	if child != nil {
		t.Fatal("nil span Start returned non-nil")
	}
	sp.End()
	sp.SetLabel("k", "v")
	sp.SetValue("k", 1)
	sp.SetError(context.Canceled)
	if sp.Trace() != nil {
		t.Fatal("nil span Trace returned non-nil")
	}
}

func TestTraceIDs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == b {
		t.Fatalf("NewTraceID collided: %s", a)
	}
	if !ValidTraceID(a) {
		t.Fatalf("generated ID %q invalid", a)
	}
	for _, bad := range []string{"", strings.Repeat("x", 65), "has space", "é", "a\nb"} {
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
	if tr := StartTrace("caller-chosen_ID-42", "req"); tr.ID() != "caller-chosen_ID-42" {
		t.Fatalf("valid ID not honored: %s", tr.ID())
	}
	if tr := StartTrace("bad id!", "req"); !ValidTraceID(tr.ID()) || tr.ID() == "bad id!" {
		t.Fatalf("invalid ID not replaced: %s", tr.ID())
	}
}

func TestTraceTree(t *testing.T) {
	tr := StartTrace("", "request")
	root := tr.Root()
	load := root.Start("load")
	p0 := load.Start("load_partition")
	p0.SetLabel("partition", "p0")
	p0.SetValue("bytes", 123)
	p0.End()
	load.End()
	merge := root.Start("merge")
	merge.SetValue("inputs", 2)
	merge.End()
	if d := tr.Finish(); d <= 0 {
		t.Fatalf("root duration %v", d)
	}
	if got := tr.Spans(); got != 4 {
		t.Fatalf("Spans() = %d, want 4", got)
	}

	snap := tr.Snapshot()
	if snap.Name != "request" || snap.Open {
		t.Fatalf("root snapshot %+v", snap)
	}
	if len(snap.Children) != 2 || snap.Children[0].Name != "load" || snap.Children[1].Name != "merge" {
		t.Fatalf("children %+v", snap.Children)
	}
	part := snap.Children[0].Children[0]
	if part.Labels["partition"] != "p0" || part.Values["bytes"] != 123 {
		t.Fatalf("partition span %+v", part)
	}
	if part.StartNS < snap.Children[0].StartNS {
		t.Fatalf("child started before parent: %d < %d", part.StartNS, snap.Children[0].StartNS)
	}
	// The tree must survive JSON round-tripping (it rides in explain output).
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestTraceOpenSpanSnapshot(t *testing.T) {
	tr := StartTrace("", "request")
	sp := tr.Root().Start("working")
	time.Sleep(time.Millisecond)
	snap := tr.Snapshot() // root and child both still open
	if !snap.Open || !snap.Children[0].Open {
		t.Fatalf("open spans not flagged: %+v", snap)
	}
	if snap.Children[0].DurationNS <= 0 {
		t.Fatalf("open span duration %d", snap.Children[0].DurationNS)
	}
	sp.End()
}

// TestTraceConcurrentRecording drives sibling spans, labels and snapshots
// from many goroutines; run under -race this is the span tree's concurrency
// proof.
func TestTraceConcurrentRecording(t *testing.T) {
	tr := StartTrace("", "request")
	root := tr.Root()
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				sp := root.Start("load_partition")
				sp.SetLabel("cache", "miss")
				sp.SetValue("bytes", int64(i*100+j))
				grand := sp.Start("decode")
				grand.End()
				sp.End()
			}
		}(i)
	}
	// Concurrent snapshots must see a consistent (if partial) tree.
	var snapWG sync.WaitGroup
	for i := 0; i < 4; i++ {
		snapWG.Add(1)
		go func() {
			defer snapWG.Done()
			for j := 0; j < 20; j++ {
				_ = tr.Snapshot()
			}
		}()
	}
	wg.Wait()
	snapWG.Wait()
	tr.Finish()
	snap := tr.Snapshot()
	if len(snap.Children) != workers*8 {
		t.Fatalf("children = %d, want %d", len(snap.Children), workers*8)
	}
	if got := tr.Spans(); got != int64(1+workers*8*2) {
		t.Fatalf("Spans() = %d, want %d", got, 1+workers*8*2)
	}
}

func TestSpanChildCap(t *testing.T) {
	tr := StartTrace("", "request")
	root := tr.Root()
	for i := 0; i < maxSpanChildren+50; i++ {
		root.Start("chunk").End()
	}
	snap := tr.Snapshot()
	if len(snap.Children) != maxSpanChildren {
		t.Fatalf("children = %d, want cap %d", len(snap.Children), maxSpanChildren)
	}
	if snap.DroppedChildren != 50 {
		t.Fatalf("dropped = %d, want 50", snap.DroppedChildren)
	}
}

func TestSpanContext(t *testing.T) {
	if sp := SpanFromContext(context.Background()); sp != nil {
		t.Fatal("empty context carried a span")
	}
	tr := StartTrace("", "request")
	ctx := ContextWithSpan(context.Background(), tr.Root())
	if sp := SpanFromContext(ctx); sp != tr.Root() {
		t.Fatal("span not recovered from context")
	}
	// A nil span leaves the context unchanged rather than storing a nil.
	ctx2 := ContextWithSpan(context.Background(), nil)
	if sp := SpanFromContext(ctx2); sp != nil {
		t.Fatal("nil span stored in context")
	}
}

// BenchmarkSpan times one span as the read path records it — Start, one
// SetValue, End — under fresh traces of 22 children each, a traced
// 16-partition merge's span count, so what each trace and its arena cost is
// paid for in the figure. The clock sub-benchmark times the two process clock
// reads a span takes, the floor of its cost on the host at hand.
func BenchmarkSpan(b *testing.B) {
	b.Run("span", func(b *testing.B) {
		const spansPerTrace = 22
		b.ReportAllocs()
		var tr *Trace
		for i := 0; i < b.N; i++ {
			if i%spansPerTrace == 0 {
				tr.Finish()
				tr = StartTrace("", "request")
			}
			sp := tr.Root().Start("load_partition")
			sp.SetValue("bytes", int64(i))
			sp.End()
		}
		tr.Finish()
	})
	b.Run("clock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clockSink += clock() - clock()
		}
	})
}

// clockSink keeps BenchmarkSpan's clock reads from being optimized away.
var clockSink time.Duration
