package server

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"samplewh/internal/warehouse"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden-estimate.txt from the current tree")

// goldenEstimatePath holds one line per request, "FIXTURE QUERY BODY", with
// the handler's JSON body as written (elapsed_ns zeroed).
var goldenEstimatePath = filepath.Join("testdata", "golden-estimate.txt")

// goldenServer is newTestServer's fixture with a cache that holds every
// partition and a fixed load-worker bound: once resident, partitions plan in
// ID order and waves have one size on any host, so bounded plans do not
// depend on measured load latency.
func goldenServer(t *testing.T, valuesPer int) *Server {
	t.Helper()
	wh := newTestWarehouse(t, 4, valuesPer)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: 1 << 22})
	return New(wh, Config{})
}

// TestEstimateWireGolden pins the estimate endpoint's JSON byte for byte: on
// two fixed-seed fixtures, every query kind — unbounded, stratified and
// sketch-pruned, bounded with and without proven-zero partitions, at other
// confidence levels and over partition subsets — answers exactly the bytes in
// testdata/golden-estimate.txt. Requests run in file order, since each merge
// draws from the warehouse's seeded stream; groupby lists equal group counts
// in ascending key, so the exhaustive fixture's four equal groups are pinned
// too.
func TestEstimateWireGolden(t *testing.T) {
	fixtures := []struct {
		name    string
		s       *Server
		queries []string
	}{
		{"sampled", goldenServer(t, 1000), []string{
			"q=avg", "q=sum", "q=median", "q=distinct", "q=quantile:0.9", "q=topk:5", "q=groupby:1000",
			"q=count:0..1999", "q=fraction:0..1999", "q=count:0..499", "q=fraction:2500..2599&prune=0",
			"q=count:5000..6000", "q=fraction:5000..6000",
			"q=fraction:0..499&maxerr=0.3&prune=0", "q=count:0..499&maxerr=0.3&prune=0",
			"q=count:0..499&maxerr=0.3", "q=fraction:0..1999&maxerr=0.3", "q=count:0..3999&maxerr=0.01",
			"q=avg&maxtime=10s", "q=avg&confidence=0.99", "q=fraction:0..1999&confidence=0.9",
			"q=count:0..1999&parts=p0,p1", "q=median&parts=p2,p3", "q=sum&maxtime=10s",
		}},
		{"exhaustive", goldenServer(t, 100), []string{
			"q=avg", "q=distinct", "q=topk:3", "q=quantile:0.25",
			"q=count:0..199", "q=count:1000..2000", "q=fraction:0..149&maxerr=0.3",
			"q=count:0..99&maxerr=0.3", "q=fraction:0..99&maxerr=0.3", "q=count:0..399&maxerr=0.3&prune=0",
			"q=groupby:100", "q=sum",
		}},
	}
	elapsed := regexp.MustCompile(`"elapsed_ns":\d+`)
	var got bytes.Buffer
	for _, fx := range fixtures {
		for _, q := range fx.queries {
			w := do(t, fx.s, http.MethodGet, "/v1/datasets/d/estimate?"+q, "")
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", fx.name, q, w.Code, w.Body.String())
			}
			body := elapsed.ReplaceAll(bytes.TrimSpace(w.Body.Bytes()), []byte(`"elapsed_ns":0`))
			fmt.Fprintf(&got, "%s %s %s\n", fx.name, q, body)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenEstimatePath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenEstimatePath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d answers, golden holds %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("answer %d differs from the golden:\n got  %s\n want %s", i, gotLines[i], wantLines[i])
		}
	}
}
