package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestServedMergesUnderConcurrentRequests runs /estimate and /sample requests
// concurrently over overlapping partition subsets, bounded and not, so one
// request recycles its merged sample — and the bounded executor its
// superseded wave accumulators — while others merge into the pool's buffers.
// Every reply must stand on a valid merged sample of its own subset: size k,
// every value drawn from a merged partition, and the merged partitions'
// parent size. Under -race, a merged sample recycled while something still
// reads it is a report.
func TestServedMergesUnderConcurrentRequests(t *testing.T) {
	const parts, per, k, clients = 8, 2000, 512, 6 // partition i holds [i·per, (i+1)·per); n_F = 512
	s := New(newTestWarehouse(t, parts, per), Config{})
	*s.query = *testLimiter(clients, clients, queueWait) // every client in flight at once, none shed
	get := func(target string, out any) error {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
		if w.Code != http.StatusOK {
			return fmt.Errorf("%s: %d %s", target, w.Code, w.Body.String())
		}
		return json.Unmarshal(w.Body.Bytes(), out)
	}
	// check holds one reply's merged sample to the subset it covers.
	check := func(sm SampleMeta, cov Coverage, values []ValueCount, sampled bool) error {
		if sm.Kind != "reservoir" || sm.Size != k {
			return fmt.Errorf("merged sample %+v, want a reservoir sample of k = %d", sm, k)
		}
		if len(cov.Merged) == 0 || sm.ParentSize != int64(per*len(cov.Merged)) {
			return fmt.Errorf("parent size %d over %d merged partitions of %d", sm.ParentSize, len(cov.Merged), per)
		}
		if !sampled {
			return nil
		}
		var n int64
		for _, vc := range values {
			if !slices.Contains(cov.Merged, part(int(vc.Value/per))) {
				return fmt.Errorf("value %d is from no merged partition %v", vc.Value, cov.Merged)
			}
			n += vc.Count
		}
		if n != k {
			return fmt.Errorf("values sum to %d, want %d", n, k)
		}
		return nil
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				sub := []string{part((c + i) % parts), part((c + i + 1) % parts), part((c + i + 3) % parts)}
				query := "parts=" + strings.Join(sub, ",")
				var err error
				switch i % 4 {
				case 0, 1: // unbounded, then bounded: waves fold until the proxy width is met
					if i%4 == 1 {
						query += "&maxerr=0.05"
					}
					var resp SampleResponse
					if err = get("/v1/datasets/d/sample?"+query, &resp); err == nil {
						err = check(resp.Sample, resp.Coverage, resp.Values, true)
					}
				case 2: // a quantile answer is a value of the merged sample
					var resp EstimateResponse
					if err = get("/v1/datasets/d/estimate?q=quantile:0.5&"+query, &resp); err == nil {
						err = check(resp.Sample, resp.Coverage, nil, false)
						if q := resp.Quantile; err == nil && (q == nil || !slices.Contains(resp.Coverage.Merged, part(int(*q/per)))) {
							err = fmt.Errorf("quantile %v is from no merged partition %v", q, resp.Coverage.Merged)
						}
					}
				case 3:
					var resp EstimateResponse
					target := fmt.Sprintf("/v1/datasets/d/estimate?q=fraction:0..%d&maxerr=0.05&%s", 4*per, query)
					if err = get(target, &resp); err == nil {
						err = check(resp.Sample, resp.Coverage, nil, false)
					}
				}
				if err != nil {
					t.Errorf("client %d request %d (%v): %v", c, i, sub, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
