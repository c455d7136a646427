package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"samplewh/internal/core"
	"samplewh/internal/faults"
	"samplewh/internal/obs"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// slowAppends is a journal fault schedule that holds every frame append for
// a few milliseconds before it is written, so the worker journaling and
// feeding an ingest lags the scan by the two chunks it may, and then applies
// the fault under test, if any.
type slowAppends struct{ faults.Schedule }

func (s slowAppends) Decide(op faults.Op, seq int64, key string) faults.Fault {
	var f faults.Fault
	if s.Schedule != nil {
		f = s.Schedule.Decide(op, seq, key)
	}
	if op == faults.OpWalAppend {
		f.Delay = 5 * time.Millisecond
	}
	return f
}

// ingestBody is the values 1..rows, one per line, with row bad written as
// "x"; bad = 0 writes none.
func ingestBody(rows, bad int) string {
	if bad == 0 {
		return valuesBody(seqValues(1, rows))
	}
	return valuesBody(seqValues(1, bad-1)) + "x\n" + valuesBody(seqValues(int64(bad)+1, rows-bad))
}

// patternReader yields size bytes of line, repeated.
type patternReader struct {
	line []byte
	off  int
	size int64
}

func (p *patternReader) Read(b []byte) (int, error) {
	if p.size <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.size {
		b = b[:p.size]
	}
	n := 0
	for n < len(b) {
		c := copy(b[n:], p.line[p.off:])
		n += c
		p.off = (p.off + c) % len(p.line)
	}
	p.size -= int64(n)
	return n, nil
}

// cancelAfter cancels the request's context once n bytes of the body have
// been read, and goes on reading.
type cancelAfter struct {
	r      io.Reader
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	if c.n -= n; c.n <= 0 {
		c.cancel()
	}
	return n, err
}

// TestIngestPipelineExitPaths: every way a journaled PUT can fail between
// its first byte and its seal answers the status and message it always has,
// and leaves nothing running: no goroutine outlives the request, and no
// journal frame is written once the handler has returned (and aborted the
// entry). The journal's appends are slowed so the worker is a chunk behind
// the scan when the scan fails; a handler that did not wait for it would
// return with that chunk still to be journaled.
func TestIngestPipelineExitPaths(t *testing.T) {
	const rows = 5 * ingestChunk
	badValue := func(row int) string {
		return "ingest d/p: value " + strconv.Itoa(row) + `: strconv.ParseInt: parsing "x": invalid syntax`
	}
	errDisk := errors.New("disk full")
	cases := []struct {
		name  string
		body  func(cancel context.CancelFunc) io.Reader
		fault faults.Schedule
		code  int
		msg   string
	}{
		{"bad value, first chunk", func(context.CancelFunc) io.Reader { return strings.NewReader(ingestBody(rows, 10)) },
			nil, http.StatusBadRequest, badValue(10)},
		// A chunk that fails on its first row fails before the worker has
		// started on the chunk ahead of it.
		{"bad value, middle chunk", func(context.CancelFunc) io.Reader { return strings.NewReader(ingestBody(rows, 2*ingestChunk+1)) },
			nil, http.StatusBadRequest, badValue(2*ingestChunk + 1)},
		{"bad value, last chunk", func(context.CancelFunc) io.Reader { return strings.NewReader(ingestBody(rows, 4*ingestChunk+1)) },
			nil, http.StatusBadRequest, badValue(4*ingestChunk + 1)},
		{"body over the cap", func(context.CancelFunc) io.Reader {
			// Lines of padding around one digit: 256 MiB + 1 byte, of which
			// the scan keeps only the 4096 whole lines under the cap.
			return &patternReader{line: []byte(strings.Repeat(" ", 1<<16-2) + "1\n"), size: maxBodyBytes + 1}
		}, nil, http.StatusRequestEntityTooLarge, "ingest body exceeds 268435456 bytes"},
		{"context cancelled mid-body", func(cancel context.CancelFunc) io.Reader {
			body := ingestBody(rows, 0)
			return &cancelAfter{r: strings.NewReader(body), n: len(body) / 2, cancel: cancel}
		}, nil, statusClientClosedRequest, "request canceled"},
		{"journal append fault", func(context.CancelFunc) io.Reader { return strings.NewReader(ingestBody(rows, 0)) },
			// Append 1 is the entry's begin frame; 4 is the third chunk's.
			faults.FailNth{Op: faults.OpWalAppend, N: 4, Err: errDisk},
			http.StatusInternalServerError, "ingest d/p: journal: wal: append: disk full"},
		{"seal fault", func(context.CancelFunc) io.Reader { return strings.NewReader(ingestBody(rows, 0)) },
			faults.FailNth{Op: faults.OpWalSync, N: 1, Err: errDisk},
			http.StatusInternalServerError, "ingest d/p: journal seal: wal: sync: disk full"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			lg, _, err := wal.Open[int64](filepath.Join(t.TempDir(), "wal"), storage.Int64Codec{},
				wal.Options{Schedule: slowAppends{tc.fault}, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			defer lg.Close()
			wh, _, err := warehouse.Open[int64](storage.NewMemStore[int64](storage.Int64Codec{}), 1)
			if err != nil {
				t.Fatal(err)
			}
			s := New(wh, Config{Journal: lg, DefaultTimeout: time.Minute}) // the 256 MiB body under -race
			if w := do(t, s, http.MethodPost, "/v1/datasets", `{"name":"d","algorithm":"HR","nf":1024}`); w.Code != http.StatusCreated {
				t.Fatalf("create: %d %s", w.Code, w.Body)
			}
			before := runtime.NumGoroutine()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			r := httptest.NewRequest(http.MethodPut, "/v1/datasets/d/partitions/p", tc.body(cancel)).WithContext(ctx)
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, r)
			appended := reg.Counter("wal.appends").Value()

			if w.Code != tc.code || decode[errorBody](t, w).Error != tc.msg {
				t.Errorf("answered %d %s, want %d %q", w.Code, strings.TrimSpace(w.Body.String()), tc.code, tc.msg)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the request, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
			if got := reg.Counter("wal.appends").Value(); got != appended {
				t.Errorf("%d journal frames written after the handler returned", got-appended)
			}
			if parts, err := wh.Partitions("d"); err != nil || len(parts) != 0 {
				t.Errorf("after a failed PUT the data set holds %v (%v)", parts, err)
			}
		})
	}
}

// panicAt is a sampler that panics on its nth value.
type panicAt struct {
	core.Sampler[int64]
	n int
}

func (p *panicAt) Feed(int64) {
	if p.n--; p.n == 0 {
		panic("sampler fault")
	}
}

// TestReadBatchRaisesWorkerPanic: a sampler that panics on the worker is
// raised again on the calling goroutine, where the server's recovery turns it
// into a 500, instead of killing the process — whichever chunk it hits, and
// without the scan waiting on a worker that is gone.
func TestReadBatchRaisesWorkerPanic(t *testing.T) {
	vals := make([]int64, 6*ingestChunk)
	for _, at := range []int{1, ingestChunk + 1, 5 * ingestChunk} {
		func() {
			defer func() {
				if p := recover(); p != "sampler fault" {
					t.Errorf("panic on value %d: recovered %v", at, p)
				}
			}()
			n, err := readBatch("ingest d/p", chunksOf(vals), &panicAt{n: at}, nil, nil)
			t.Errorf("panic on value %d: readBatch returned %d, %v", at, n, err)
		}()
	}
}
