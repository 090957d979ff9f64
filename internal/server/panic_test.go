package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/stats"
)

// TestPanickingTaskIsContained runs a custom Assoc that panics on one
// context's windows. The panic is contained at the task boundary: the
// diagnose report completes as failed and counts in reportsFailed, a waiting
// POST /v1/signatures gets a 500 instead of hanging, /healthz stays ok, the
// one worker goes on to diagnose another context, and Shutdown drains
// cleanly.
func TestPanickingTaskIsContained(t *testing.T) {
	const poison = 777.0 // carried only by the poisoned windows' first tick
	cfg := core.DefaultConfig()
	cfg.Assoc = func(x, y []float64) float64 {
		if x[0] == poison || y[0] == poison {
			panic("assoc: poisoned window")
		}
		return absPearson(x, y)
	}
	var logged bytes.Buffer
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	srv, _, err := New(Config{Core: cfg, Workers: 1, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	bad := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	good := core.Context{Workload: "wordcount", IP: "10.0.0.3"}
	trainContext(t, srv, bad, 1501)
	trainContext(t, srv, good, 1502)
	rng := stats.NewRNG(1503)
	poisoned := coupledSamples(rng.Fork(1), 40, 8, nil, 0)
	for m := range poisoned[0].Metrics {
		poisoned[0].Metrics[m] = poison
	}

	rec := postJSON(t, h, "/v1/diagnose", DiagnoseRequest{Workload: bad.Workload, Node: bad.IP, Samples: poisoned, Wait: true})
	var dr DiagnoseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
		t.Fatalf("diagnose: status %d, body %s: %v", rec.Code, rec.Body, err)
	}
	if dr.Status != StatusFailed || dr.Report == nil || dr.Report.Error == "" {
		t.Fatalf("poisoned diagnose report = %+v, want failed with an error", dr.Report)
	}
	if got := srv.ctr.reportsFailed.Load(); got != 1 {
		t.Fatalf("reportsFailed = %d, want 1", got)
	}

	rec = postJSON(t, h, "/v1/signatures", SignatureRequest{Workload: bad.Workload, Node: bad.IP, Problem: "p", Samples: poisoned})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("poisoned signature: status %d, want 500 (body %s)", rec.Code, rec.Body)
	}

	hrec := httptest.NewRecorder()
	h.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var health Health
	if err := json.Unmarshal(hrec.Body.Bytes(), &health); err != nil || hrec.Code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("/healthz after the panics: %d %s (%v)", hrec.Code, hrec.Body, err)
	}

	rep := diagnoseWait(t, srv, DiagnoseRequest{Workload: good.Workload, Node: good.IP, Samples: coupledSamples(rng.Fork(2), 40, 8, nil, 0)})
	if rep.Diagnosis == nil {
		t.Fatalf("second context's report carries no diagnosis: %+v", rep)
	}
	if st := srv.Stats(); st.ReportsPending != 0 || st.ReportsFailed != 1 || st.ReportsDone != 1 {
		t.Fatalf("reports pending %d failed %d done %d, want 0, 1, 1", st.ReportsPending, st.ReportsFailed, st.ReportsDone)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown after contained panics: %v", err)
	}
	if n := strings.Count(logged.String(), "server: task panicked: assoc: poisoned window"); n != 2 {
		t.Fatalf("logged %d contained panics, want 2:\n%s", n, logged.String())
	}
}
