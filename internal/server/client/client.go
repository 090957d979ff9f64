// Package client is the typed Go client for the invarnetd HTTP API, plus a
// small load generator used by the smoke target and the serving benchmark.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"invarnetx/internal/server"
)

// Client speaks the invarnetd JSON API.
type Client struct {
	base string
	hc   *http.Client

	// sleep waits out a backoff delay; nil selects a context-aware timer.
	// Injectable so backoff tests run in virtual time.
	sleep func(ctx context.Context, d time.Duration) error
}

// pause blocks for d or until ctx is cancelled, whichever comes first.
func (c *Client) pause(ctx context.Context, d time.Duration) error {
	if c.sleep != nil {
		return c.sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8080").
// hc may be nil, selecting a client with a 30 s timeout.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{base: base, hc: hc}
}

// APIError is a non-2xx response decoded from the server's error envelope.
type APIError struct {
	StatusCode int
	Message    string
	// RetryAfter is the parsed Retry-After hint on 429s (0 otherwise).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("invarnetd: HTTP %d: %s", e.StatusCode, e.Message)
}

// IsShed reports whether err is the server's admission-control refusal
// (429 Too Many Requests) — the signal to back off and retry.
func IsShed(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.StatusCode == http.StatusTooManyRequests
}

// do runs one JSON round trip: in, a server.IngestRequest or
// server.DiagnoseRequest, appended as the request body into a pooled buffer
// (when non-nil), the response read by send.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		bufp := bodyPool.Get().(*[]byte)
		defer putBody(bufp)
		buf, err := appendRequest((*bufp)[:0], in)
		*bufp = buf[:0]
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.send(req, out)
}

// respPool recycles response-body buffers and bodyPool request bodies, JSON
// and frames alike; a buffer grown past maxPooled (a large signature listing,
// a long batch) is left to the collector.
var (
	respPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	bodyPool = sync.Pool{New: func() any { b := make([]byte, 0, maxPooled); return &b }}
)

// putBody hands a request buffer back to bodyPool, unless it grew past
// maxPooled.
func putBody(bufp *[]byte) {
	if cap(*bufp) <= maxPooled {
		bodyPool.Put(bufp)
	}
}

const (
	maxPooled = 64 << 10
	// maxPresize bounds how much a Content-Length alone can make send
	// allocate; a longer body still reads whole, growing as bytes arrive.
	maxPresize = 8 << 20
)

// send is every call's one read path: it runs req, maps a non-2xx to
// *APIError, and otherwise reads the body whole into a pooled buffer sized
// from Content-Length before one json.Unmarshal into out (skipped when out
// is nil). Reading to EOF hands the keep-alive connection back at once.
func (c *Client) send(req *http.Request, out any) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return c.apiError(resp)
	}
	buf := respPool.Get().(*bytes.Buffer)
	buf.Reset()
	if n := resp.ContentLength; n > 0 {
		// ReadFrom wants MinRead bytes free before each read, the one
		// that meets EOF included.
		buf.Grow(int(min(n, maxPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if out != nil {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	if buf.Cap() <= maxPooled {
		respPool.Put(buf)
	}
	if err != nil {
		return fmt.Errorf("client: decoding response: %w", err)
	}
	return nil
}

// apiError decodes a non-2xx response into *APIError.
func (c *Client) apiError(resp *http.Response) error {
	ae := &APIError{StatusCode: resp.StatusCode}
	var envelope struct {
		Error string `json:"error"`
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
		ae.Message = envelope.Error
	} else {
		ae.Message = string(raw)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
		ae.RetryAfter = time.Duration(secs) * time.Second
	}
	return ae
}

// Ingest submits one batch of samples for the (workload, node) stream.
func (c *Client) Ingest(ctx context.Context, workload, node string, samples []server.Sample) (*server.IngestResponse, error) {
	var out server.IngestResponse
	err := c.do(ctx, http.MethodPost, "/v1/ingest", server.IngestRequest{
		Workload: workload, Node: node, Samples: samples,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestFrame submits one batch in the compact binary frame encoding
// (Content-Type application/x-invarnet-frame) — the wire-speed twin of
// Ingest, decoding server-side without per-sample allocation. The response
// and the error surface (429 shed, IsShed) are identical to the JSON path.
func (c *Client) IngestFrame(ctx context.Context, workload, node string, samples []server.Sample) (*server.IngestResponse, error) {
	bufp := bodyPool.Get().(*[]byte)
	defer putBody(bufp)
	frame, err := server.AppendFrame((*bufp)[:0], workload, node, samples)
	if err != nil {
		return nil, fmt.Errorf("client: encoding frame: %w", err)
	}
	*bufp = frame[:0]
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/ingest", bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.ContentTypeFrame)
	var out server.IngestResponse
	if err := c.send(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Diagnose requests a diagnosis. With samples nil the stream's current
// window is diagnosed; wait=true blocks until the report completes.
func (c *Client) Diagnose(ctx context.Context, workload, node string, samples []server.Sample, wait bool) (*server.DiagnoseResponse, error) {
	var out server.DiagnoseResponse
	err := c.do(ctx, http.MethodPost, "/v1/diagnose", server.DiagnoseRequest{
		Workload: workload, Node: node, Samples: samples, Wait: wait,
	}, &out)
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the server's operational counters.
func (c *Client) Stats(ctx context.Context) (*server.Stats, error) {
	var out server.Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz fetches liveness.
func (c *Client) Healthz(ctx context.Context) (*server.Health, error) {
	var out server.Health
	if err := c.do(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
