package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
)

// Client calls only tests make.

// IsShed reports whether err is a 429 load-shed response.
func IsShed(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.StatusCode == http.StatusTooManyRequests
}

// Health returns the server's health report (an *APIError with the decoded
// body when the server is draining).
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var out HealthResponse
	err := c.get(ctx, "/healthz", nil, &out)
	return out, err
}

// IngestValues is Ingest for an in-memory value slice.
func (c *Client) IngestValues(ctx context.Context, ds, part string, expected int64, values []int64) (IngestResponse, error) {
	return c.Ingest(ctx, ds, part, expected, strings.NewReader(valuesBody(values)))
}
