package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/stats"
)

// chunkThreshold is net/http's pre-header buffer: a handler that writes more
// than this without a Content-Length is sent chunked.
const chunkThreshold = 2 << 10

// faultyWindow is a window on which a trainStreams context violates enough
// invariants that its verdict overflows chunkThreshold.
func faultyWindow(seed int64) []server.Sample {
	return client.SynthBatch(stats.NewRNG(seed), client.LoadConfig{Coupled: 2}, 40)
}

// framed reads one response whole and asserts it was sent length-framed and
// compact: Content-Length equal to the body, no Transfer-Encoding, and the
// body exactly json.Marshal of its own decoding into a fresh want (a
// pointer to the endpoint's wire type) plus one newline.
func framed(t *testing.T, what string, resp *http.Response, wantCode int, want any) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s: reading body: %v", what, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s: status %d, want %d (body %s)", what, resp.StatusCode, wantCode, body)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Errorf("%s: Content-Length %d for a %d-byte body", what, resp.ContentLength, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Errorf("%s: Transfer-Encoding %v", what, resp.TransferEncoding)
	}
	if err := json.Unmarshal(body, want); err != nil {
		t.Fatalf("%s: body %q: %v", what, body, err)
	}
	compact, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, append(compact, '\n')) {
		t.Errorf("%s: body is not json.Marshal(payload)+\"\\n\":\n got %q\nwant %q", what, body, compact)
	}
	return body
}

// TestResponsesAreLengthFramed: every endpoint and status the daemon serves
// (ingest 202, a verdict over 2 KiB, 409, report 200 and 404, stats,
// profiles, signatures, healthz, 400) leaves as one compact body with its
// Content-Length — none goes out chunked.
func TestResponsesAreLengthFramed(t *testing.T) {
	srv, _, hs := newTestServer(t, server.Config{Core: core.DefaultConfig(), Workers: 2})
	lcfg := client.LoadConfig{Streams: 1}
	trainStreams(t, srv.System(), lcfg, 1)
	w, node := lcfg.StreamID(0)
	hc := hs.Client()
	post := func(path, ctype string, body []byte) *http.Response {
		t.Helper()
		resp, err := hc.Post(hs.URL+path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := hc.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	frame, err := server.AppendFrame(nil, w, node, faultyWindow(3))
	if err != nil {
		t.Fatal(err)
	}
	framed(t, "ingest", post("/v1/ingest", server.ContentTypeFrame, frame), http.StatusAccepted, new(server.IngestResponse))

	var verdict server.DiagnoseResponse
	body := framed(t, "diagnose", post("/v1/diagnose", "application/json",
		mustJSON(server.DiagnoseRequest{Workload: w, Node: node, Samples: faultyWindow(4), Wait: true})),
		http.StatusOK, &verdict)
	if len(body) <= chunkThreshold {
		t.Fatalf("verdict is %d bytes, want over %d so the test covers what was chunked", len(body), chunkThreshold)
	}
	if verdict.Status != server.StatusDone {
		t.Fatalf("verdict status %q (%s)", verdict.Status, verdict.Report.Error)
	}

	framed(t, "untrained", post("/v1/diagnose", "application/json",
		mustJSON(server.DiagnoseRequest{Workload: "nope", Node: "10.9.9.9", Samples: faultyWindow(5), Wait: true})),
		http.StatusConflict, new(struct {
			Error string `json:"error"`
		}))
	framed(t, "report", get("/v1/reports/"+verdict.ID), http.StatusOK, new(server.Report))
	framed(t, "missing report", get("/v1/reports/r-99999999"), http.StatusNotFound, new(struct {
		Error string `json:"error"`
	}))
	framed(t, "stats", get("/v1/stats"), http.StatusOK, new(server.Stats))
	framed(t, "profiles", get("/v1/profiles"), http.StatusOK, new(server.ProfilesResponse))
	framed(t, "signatures", get("/v1/signatures"), http.StatusOK, new(server.SignaturesResponse))
	framed(t, "healthz", get("/healthz"), http.StatusOK, new(server.Health))
	framed(t, "bad request", post("/v1/diagnose", "application/json", []byte(`{"bogus":1}`)),
		http.StatusBadRequest, new(struct {
			Error string `json:"error"`
		}))
	framed(t, "untrained signature", post("/v1/signatures", "application/json",
		mustJSON(server.SignatureRequest{Workload: "nope", Node: "10.9.9.9", Problem: "x", Samples: faultyWindow(6)})),
		http.StatusConflict, new(struct {
			Error string `json:"error"`
		}))
}

// TestClientKeepsOneConnection: 200 alternating binary ingests and waited
// diagnoses through client.Client, verdicts over 2 KiB, with a 409 and a 404
// among them, all ride one keep-alive connection — the client reads every
// body, success or error, to its end.
func TestClientKeepsOneConnection(t *testing.T) {
	srv, _, err := server.New(server.Config{Core: core.DefaultConfig(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lcfg := client.LoadConfig{Streams: 1}
	trainStreams(t, srv.System(), lcfg, 1)
	w, node := lcfg.StreamID(0)

	var conns atomic.Int64
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	hc := hs.Client()
	c := client.New(hs.URL, hc)
	ctx := context.Background()

	for i := 0; i < 100; i++ {
		if _, err := c.IngestFrame(ctx, w, node, faultyWindow(int64(10+i))); err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
		resp, err := c.Diagnose(ctx, w, node, faultyWindow(int64(200+i)), true)
		if err != nil {
			t.Fatalf("diagnose %d: %v", i, err)
		}
		if resp.Report == nil || resp.Report.Diagnosis == nil {
			t.Fatalf("diagnose %d: no verdict (%+v)", i, resp.Report)
		}
		if raw, _ := json.Marshal(resp); len(raw) <= chunkThreshold {
			t.Fatalf("verdict is %d bytes, want over %d", len(raw), chunkThreshold)
		}
		switch i {
		case 30:
			// The client has no labelling call: the 409 rides the same
			// *http.Client, so the same connection pool.
			body, _ := json.Marshal(server.SignatureRequest{Workload: "nope", Node: "10.9.9.9", Problem: "x", Samples: faultyWindow(7)})
			resp, err := hc.Post(hs.URL+"/v1/signatures", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Fatalf("untrained signature: status %d, want 409", resp.StatusCode)
			}
		case 60:
			// Nor a report call: the 404 rides the same pool too.
			resp, err := hc.Get(hs.URL + "/v1/reports/r-99999999")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("missing report: status %d, want 404", resp.StatusCode)
			}
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections opened, want 1", n)
	}
}
