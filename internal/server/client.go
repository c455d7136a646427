package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"samplewh/internal/obs"
)

// Client is the Go client for a running swd server. It is the single
// client-side surface shared by swcli's query subcommand, the swbench serve
// load driver, and the integration tests. The zero value is not usable;
// construct with NewClient.
//
// By default the client transparently retries load-shed (429) and transient
// 5xx responses for idempotent requests with capped, jittered exponential
// backoff, honoring the server's Retry-After hint and bounded by the request
// context. SetRetryPolicy tunes or disables this; Retries reports how many
// retry attempts were spent.
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	retries atomic.Int64
}

// RetryPolicy tunes the client's automatic retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first; 1
	// disables retries. Default 3.
	MaxAttempts int
	// BaseBackoff seeds the exponential backoff (doubled per retry, full
	// jitter). Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps a single backoff sleep, including server Retry-After
	// hints. Default 2s.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is the policy NewClient installs.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}
}

// NoRetry disables automatic retries — for callers that count failures
// themselves (load experiments asserting shed totals) or implement their own
// retry loop.
func NoRetry() RetryPolicy { return RetryPolicy{MaxAttempts: 1} }

func (p RetryPolicy) normalized() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// NewClient builds a client for the server at base (e.g.
// "http://127.0.0.1:8385"). httpc may be nil for http.DefaultClient.
func NewClient(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimRight(base, "/"),
		http:  httpc,
		retry: DefaultRetryPolicy(),
	}
}

// SetRetryPolicy replaces the retry policy. Not safe to call concurrently
// with requests; configure before use.
func (c *Client) SetRetryPolicy(p RetryPolicy) *Client {
	c.retry = p.normalized()
	return c
}

// Retries returns the total retry attempts the client has spent (first
// attempts are not counted).
func (c *Client) Retries() int64 { return c.retries.Load() }

// APIError is a non-2xx server response.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the server's Retry-After hint on 429 responses (zero
	// otherwise).
	RetryAfter time.Duration
}

// Error renders the failure.
func (e *APIError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.StatusCode, http.StatusText(e.StatusCode), e.Message)
}

// retryableRequest reports whether a request may be transparently re-issued:
// the method must be idempotent and the body (if any) replayable via GetBody
// (http.NewRequest sets it for strings/bytes readers; streaming bodies are
// not retried).
func retryableRequest(req *http.Request) bool {
	switch req.Method {
	case http.MethodGet, http.MethodHead, http.MethodPut, http.MethodDelete:
	default:
		return false
	}
	return req.Body == nil || req.GetBody != nil
}

// retryableStatus reports whether an APIError is worth retrying: load sheds
// and the transient 5xx family a restarting or saturated server emits.
func retryableStatus(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	switch ae.StatusCode {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// backoff sleeps before retry number attempt (1-based), bounded by ctx. The
// server's Retry-After hint overrides the exponential schedule; either way
// the sleep is capped at MaxBackoff and fully jittered to spread retrying
// clients apart.
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) error {
	d := c.retry.BaseBackoff << (attempt - 1)
	var ae *APIError
	if errors.As(lastErr, &ae) && ae.RetryAfter > 0 {
		d = ae.RetryAfter
	}
	if d > c.retry.MaxBackoff {
		d = c.retry.MaxBackoff
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// do issues the request, retrying per the client's policy, and decodes the
// JSON response into out (skipped when out is nil). Non-2xx responses decode
// the error envelope into an APIError.
func (c *Client) do(req *http.Request, out any) error {
	return c.doCapture(req, out, nil)
}

// doCapture is do with a response hook: onResp (when non-nil) observes the
// final successful response's headers before the body is decoded.
func (c *Client) doCapture(req *http.Request, out any, onResp func(*http.Response)) error {
	// Propagate the caller's trace: a request issued under a traced context
	// (a server fanning out to peers, an instrumented benchmark) carries its
	// trace ID so the receiving server joins the same trace.
	if id := obs.SpanFromContext(req.Context()).Trace().ID(); id != "" && req.Header.Get(TraceHeader) == "" {
		req.Header.Set(TraceHeader, id)
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 || !retryableRequest(req) {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(req.Context(), attempt, lastErr); err != nil {
				return lastErr
			}
			if req.Body != nil {
				body, err := req.GetBody()
				if err != nil {
					return lastErr
				}
				req.Body = body
			}
			c.retries.Add(1)
		}
		err := c.doOnce(req, out, onResp)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryableStatus(err) {
			return err
		}
	}
	return lastErr
}

// doOnce is a single request/response exchange.
func (c *Client) doOnce(req *http.Request, out any, onResp func(*http.Response)) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 && onResp != nil {
		onResp(resp)
	}
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		ae := &APIError{StatusCode: resp.StatusCode}
		var body errorBody
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); derr == nil {
			ae.Message = body.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return ae
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// get issues a GET for path with the given query values.
func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// Datasets lists every data set with its configuration and partitions.
func (c *Client) Datasets(ctx context.Context) ([]DatasetInfo, error) {
	var out []DatasetInfo
	err := c.get(ctx, "/v1/datasets", nil, &out)
	return out, err
}

// Dataset describes one data set.
func (c *Client) Dataset(ctx context.Context, name string) (DatasetInfo, error) {
	var out DatasetInfo
	err := c.get(ctx, "/v1/datasets/"+url.PathEscape(name), nil, &out)
	return out, err
}

// CreateDataset registers a data set.
func (c *Client) CreateDataset(ctx context.Context, req CreateDatasetRequest) (DatasetInfo, error) {
	var out DatasetInfo
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/datasets", strings.NewReader(string(body)))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	err = c.do(hreq, &out)
	return out, err
}

// PartitionInfo describes one stored partition sample.
func (c *Client) PartitionInfo(ctx context.Context, ds, part string) (PartitionInfo, error) {
	var out PartitionInfo
	err := c.get(ctx, "/v1/datasets/"+url.PathEscape(ds)+"/partitions/"+url.PathEscape(part), nil, &out)
	return out, err
}

// Ingest streams values (text, one per line) into a new partition of ds.
// expected passes the expected partition size (required for HB data sets;
// 0 otherwise).
//
// Pass values as a *strings.Reader or *bytes.Reader to make the request
// replayable: only then can the client's automatic retry re-issue it after a
// shed or transient failure.
func (c *Client) Ingest(ctx context.Context, ds, part string, expected int64, values io.Reader) (IngestResponse, error) {
	return c.IngestKeyed(ctx, ds, part, expected, "", values)
}

// IngestKeyed is Ingest with a client-chosen Idempotency-Key: the server
// remembers the key with the batch (in its journal, when one is configured),
// so a retry after an ambiguous failure — even across a server crash and
// restart — answers with the original acknowledgment instead of ingesting
// again.
func (c *Client) IngestKeyed(ctx context.Context, ds, part string, expected int64, key string, values io.Reader) (IngestResponse, error) {
	out, _, err := c.putPartition(ctx, ds, part, expected, key, values, false)
	return out, err
}

// putPartition issues the ingest request, PUT …/partitions/part. forwarded
// marks a coordinator-to-replica leg: the marker header makes the receiving
// shard serve the write locally instead of coordinating again. The bool
// reports an idempotent replay.
func (c *Client) putPartition(ctx context.Context, ds, part string, expected int64, key string, values io.Reader, forwarded bool) (IngestResponse, bool, error) {
	var out IngestResponse
	u := c.base + "/v1/datasets/" + url.PathEscape(ds) + "/partitions/" + url.PathEscape(part)
	if expected > 0 {
		u += "?expected=" + strconv.FormatInt(expected, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, values)
	if err != nil {
		return out, false, err
	}
	req.Header.Set("Content-Type", "text/plain")
	if forwarded {
		req.Header.Set(forwardedHeader, "1")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	var replayed bool
	err = c.doCapture(req, &out, func(resp *http.Response) {
		replayed = resp.Header.Get("Idempotency-Replayed") == "true"
	})
	return out, replayed, err
}

// RollOut removes a partition.
func (c *Client) RollOut(ctx context.Context, ds, part string) error {
	return c.deletePartition(ctx, ds, part, false)
}

// deletePartition issues the roll-out request; forwarded removes the
// partition from one replica without triggering that replica's own
// coordination.
func (c *Client) deletePartition(ctx context.Context, ds, part string, forwarded bool) error {
	u := c.base + "/v1/datasets/" + url.PathEscape(ds) + "/partitions/" + url.PathEscape(part)
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, u, nil)
	if err != nil {
		return err
	}
	if forwarded {
		req.Header.Set(forwardedHeader, "1")
	}
	return c.do(req, nil)
}

// QueryOpts carries the optional parameters shared by Sample and Estimate.
type QueryOpts struct {
	// Parts selects a partition subset (nil = all).
	Parts []string
	// Strict fails the merge on any unreadable partition instead of
	// degrading and reporting coverage.
	Strict bool
	// Timeout is the per-request deadline passed to the server (its own
	// default applies when zero; the server clamps to its max).
	Timeout time.Duration
	// Confidence selects the interval level for estimates (0 = 0.95).
	Confidence float64
	// Limit caps the value entries of a Sample response (-0 = all).
	Limit int
	// MaxErr asks for a bounded query (?maxerr=): the server stops merging
	// partitions once the answer's fraction-scale confidence half-width,
	// relative to the full requested population, is at most this bound.
	// Estimate supports it for count: and fraction: queries only; Sample uses
	// a query-agnostic worst-case width.
	MaxErr float64
	// MaxTime bounds the server-side merge time (?maxtime=): the executor
	// stops starting new partition loads once the budget is about to run out
	// and answers from what it merged so far.
	MaxTime time.Duration
	// Explain asks the server for the request's span tree (?explain=1),
	// populating the response's TraceID and Trace fields.
	Explain bool
	// Local pins the query to the receiving shard's own warehouse (?local=1)
	// instead of letting a cluster node coordinate a scatter — this is how
	// the coordinator itself addresses peers without recursion.
	Local bool
	// Sketch asks a Sample response to carry the merged sketch sidecar of
	// its covered partitions (?sketch=1) — KMV distinct and heavy hitters
	// without shipping the values.
	Sketch bool
	// NoPrune disables sketch-sidecar partition pruning on range estimates
	// (?prune=0). Pruning never changes the answer; the switch exists for
	// verification and benchmarking.
	NoPrune bool
}

func (o QueryOpts) values() url.Values {
	q := url.Values{}
	if len(o.Parts) > 0 {
		q.Set("parts", strings.Join(o.Parts, ","))
	}
	if o.Strict {
		q.Set("partial", "0")
	}
	if o.Timeout > 0 {
		q.Set("timeout", o.Timeout.String())
	}
	if o.Confidence > 0 {
		q.Set("confidence", strconv.FormatFloat(o.Confidence, 'g', -1, 64))
	}
	if o.Limit > 0 {
		q.Set("limit", strconv.Itoa(o.Limit))
	}
	if o.MaxErr > 0 {
		q.Set("maxerr", strconv.FormatFloat(o.MaxErr, 'g', -1, 64))
	}
	if o.MaxTime > 0 {
		q.Set("maxtime", o.MaxTime.String())
	}
	if o.Explain {
		q.Set("explain", "1")
	}
	if o.Local {
		q.Set("local", "1")
	}
	if o.Sketch {
		q.Set("sketch", "1")
	}
	if o.NoPrune {
		q.Set("prune", "0")
	}
	return q
}

// Sample retrieves the merged sample of the selected partitions.
func (c *Client) Sample(ctx context.Context, ds string, opts QueryOpts) (SampleResponse, error) {
	var out SampleResponse
	err := c.get(ctx, "/v1/datasets/"+url.PathEscape(ds)+"/sample", opts.values(), &out)
	return out, err
}

// Estimate answers an approximate query (see the q grammar in the package
// docs / handleEstimate) over the merged sample of the selected partitions.
func (c *Client) Estimate(ctx context.Context, ds, q string, opts QueryOpts) (EstimateResponse, error) {
	var out EstimateResponse
	vals := opts.values()
	vals.Set("q", q)
	err := c.get(ctx, "/v1/datasets/"+url.PathEscape(ds)+"/estimate", vals, &out)
	return out, err
}

// ReadyCheck probes GET /readyz; nil means the server is ready to serve.
func (c *Client) ReadyCheck(ctx context.Context) error {
	return c.get(ctx, "/readyz", nil, nil)
}

// ClusterStatus fetches GET /clusterz: the node's view of its cluster —
// per-peer readiness, breaker states, hedge thresholds and placement.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatusResponse, error) {
	var out ClusterStatusResponse
	err := c.get(ctx, "/clusterz", nil, &out)
	return out, err
}

// Digest fetches GET /antientropy/digest: the shard's partition inventory
// as dataset → partition → content hash. A non-empty ds scopes the answer
// to one data set.
func (c *Client) Digest(ctx context.Context, ds string) (DigestResponse, error) {
	var out DigestResponse
	var q url.Values
	if ds != "" {
		q = url.Values{"ds": {ds}}
	}
	err := c.get(ctx, "/antientropy/digest", q, &out)
	return out, err
}

// PullPartition fetches one partition's raw stored bytes plus sketch
// sidecar from GET /antientropy/partition — the transfer source of an
// anti-entropy pull.
func (c *Client) PullPartition(ctx context.Context, ds, part string) (PartitionTransferResponse, error) {
	var out PartitionTransferResponse
	err := c.get(ctx, "/antientropy/partition", url.Values{"ds": {ds}, "part": {part}}, &out)
	return out, err
}

// NudgeRepair posts /antientropy/nudge: a read-repair signal telling the
// target shard one of its partitions may be missing or stale.
func (c *Client) NudgeRepair(ctx context.Context, ds, part string) error {
	u := c.base + "/antientropy/nudge?" + url.Values{"ds": {ds}, "part": {part}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	return c.do(req, nil)
}

// createDatasetForward pushes a data set definition to one replica.
func (c *Client) createDatasetForward(ctx context.Context, req CreateDatasetRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/v1/datasets", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(forwardedHeader, "1")
	return c.do(hreq, nil)
}

// Metrics fetches the server's metrics snapshot as raw JSON.
func (c *Client) Metrics(ctx context.Context) (json.RawMessage, error) {
	var out json.RawMessage
	err := c.get(ctx, "/metricsz", nil, &out)
	return out, err
}

// SlowLog fetches the server's slow-query log, newest entry first.
func (c *Client) SlowLog(ctx context.Context) (SlowLogResponse, error) {
	var out SlowLogResponse
	err := c.get(ctx, "/debug/slowlog", nil, &out)
	return out, err
}
