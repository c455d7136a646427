package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
	"samplewh/internal/server"
	"samplewh/internal/storage"
	"samplewh/internal/wal"
	"samplewh/internal/warehouse"
)

// stack is the served warehouse, wired exactly as cmd/swd's run() wires it
// under swd's default flags — file store, journal on with -wal-sync=always,
// 256-event trace ring, workers and QueryLimit = GOMAXPROCS, -timeout 2s —
// but inside this process, so there is no child to start, wait for or leak.
// Only -cache is set per workload.
type stack struct {
	dir     string
	reg     *obs.Registry
	store   *storage.FileStore[int64]
	wh      *warehouse.Warehouse[int64]
	journal *wal.Log[int64]
	srv     *server.Server
	httpSrv *http.Server
	addr    string
	served  chan error
}

func openStack(dir string, seed uint64, cacheBytes int64) (*stack, error) {
	reg := obs.NewRegistry()
	reg.SetSink(obs.NewMemorySink(256))

	st, err := storage.NewFileStore[int64](dir, storage.Int64Codec{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st.Instrument(reg)
	wh, _, err := warehouse.Open[int64](st, seed)
	if err != nil {
		return nil, fmt.Errorf("open warehouse: %w", err)
	}
	wh.Instrument(reg)
	wh.SetQueryConfig(warehouse.QueryConfig{CacheBytes: cacheBytes})

	journal, _, err := wal.Open[int64](filepath.Join(dir, "wal"), storage.Int64Codec{},
		wal.Options{Policy: wal.SyncAlways, Registry: reg})
	if err != nil {
		return nil, fmt.Errorf("open journal: %w", err)
	}
	srv := server.New(wh, server.Config{Registry: reg, Journal: journal})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		journal.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &stack{dir: dir, reg: reg, store: st, wh: wh, journal: journal, srv: srv,
		httpSrv: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		addr:    ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return s, nil
}

// close drains the server and closes the journal; both must succeed for the
// run to count as correct.
func (s *stack) close() error {
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.httpSrv.Shutdown(ctx)
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.srv.FinishDrain()
	if jerr := s.journal.Close(); err == nil && jerr != nil {
		err = fmt.Errorf("journal close: %w", jerr)
	}
	return err
}

// client is the one keep-alive connection the whole run uses. One request is
// in flight at a time, so the harness and the server never need more threads
// than the server alone would.
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	buf  bytes.Buffer
}

func dial(addr string) (*client, error) {
	c := &client{addr: addr}
	return c, c.redial()
}

func (c *client) redial() error {
	if c.conn != nil {
		c.conn.Close()
	}
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	return nil
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
	}
}

// interrupted is set by SIGTERM or SIGINT. The client then refuses to send,
// every loop over requests stops, and the run unwinds through its ordinary
// shutdown, which is what removes the warehouse directory.
var interrupted atomic.Bool

var errInterrupted = errors.New("interrupted")

// do sends one rendered request and returns the status and a copy of the
// response body. A transport error costs the connection; the next call gets
// a fresh one.
func (c *client) do(r *request) (int, []byte, error) {
	if interrupted.Load() {
		return 0, nil, errInterrupted
	}
	bufs := net.Buffers{r.head}
	if r.body != nil {
		bufs = append(bufs, r.body)
	}
	if _, err := bufs.WriteTo(c.conn); err != nil {
		c.redial()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.redial()
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.redial()
	}
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, bytes.Clone(c.buf.Bytes()), nil
}
