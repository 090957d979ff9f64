// TestBinaryIngestMatchesJSONStreamState is the round-trip property pin for
// the wire-speed data plane: two identically configured servers fed the
// same gap-bearing batches — one over JSON, one as binary frames — must end
// up with indistinguishable serving state. Both paths converge on the same
// columnar admission, so this asserts bit-identical window columns and
// validity and the same diagnosis verdict on a trained context.
package server

import (
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/stats"
)

func postFrame(t *testing.T, h http.Handler, workload, node string, samples []Sample) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := AppendFrame(nil, workload, node, samples)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest", strings.NewReader(string(buf)))
	req.Header.Set("Content-Type", ContentTypeFrame)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestBinaryIngestMatchesJSONStreamState(t *testing.T) {
	cfg := Config{Core: core.DefaultConfig(), WindowCap: 48}
	jsonSrv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	binSrv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.3.0.9"}
	trainContext(t, jsonSrv, ctx, 901)
	trainContext(t, binSrv, ctx, 901)

	// Batches of varying size straddling the window capacity, with masked
	// metrics and CPI gaps in the mix.
	rng := stats.NewRNG(902)
	total := 0
	for _, n := range []int{5, 48, 17, 60, 3, 31} {
		batch := coupledSamples(rng.Fork(int64(n)), n, 8, nil, 7)
		f := false
		if n%2 == 1 {
			batch[n/2].CPIValid = &f
			batch[n/2].CPI = 0
		}
		rec := postJSON(t, jsonSrv.Handler(), "/v1/ingest", IngestRequest{
			Workload: ctx.Workload, Node: ctx.IP, Samples: batch,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("json ingest %d: status %d, body %s", n, rec.Code, rec.Body)
		}
		if rec := postFrame(t, binSrv.Handler(), ctx.Workload, ctx.IP, batch); rec.Code != http.StatusAccepted {
			t.Fatalf("binary ingest %d: status %d, body %s", n, rec.Code, rec.Body)
		}
		total += n
		if total > cfg.WindowCap {
			total = cfg.WindowCap
		}
	}

	jst := mustStream(t, jsonSrv, ctx)
	bst := mustStream(t, binSrv, ctx)
	// The window saturates at its capacity before the last batch lands, so
	// wait on the applied-sample counter, not the window length.
	waitIngested := func(st *stream, n int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for st.ingested.Load() != n {
			if time.Now().After(deadline) {
				t.Fatalf("ingested %d samples, want %d", st.ingested.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitIngested(jst, 164)
	waitIngested(bst, 164)

	jst.mu.Lock()
	bst.mu.Lock()
	jw, bw := &jst.win, &bst.win
	if jw.n != bw.n {
		t.Fatalf("window lengths diverged: %d vs %d", jw.n, bw.n)
	}
	for m := 0; m < len(jw.cols)/jw.cap; m++ {
		for i := 0; i < jw.n; i++ {
			jv, bv := jw.cols[m*jw.cap+i], bw.cols[m*bw.cap+i]
			if math.Float64bits(jv) != math.Float64bits(bv) ||
				jw.valid[m*jw.cap+i] != bw.valid[m*bw.cap+i] {
				t.Fatalf("window metric %d tick %d: json (%v,%v) != binary (%v,%v)",
					m, i, jv, jw.valid[m*jw.cap+i], bv, bw.valid[m*bw.cap+i])
			}
		}
	}
	for i := 0; i < jw.n; i++ {
		if math.Float64bits(jw.cpi[i]) != math.Float64bits(bw.cpi[i]) || jw.cpiOK[i] != bw.cpiOK[i] {
			t.Fatalf("window CPI tick %d diverged", i)
		}
	}
	bst.mu.Unlock()
	jst.mu.Unlock()

	// Same verdict from the same trained context over the same window.
	jrep := diagnoseWait(t, jsonSrv, DiagnoseRequest{Workload: ctx.Workload, Node: ctx.IP})
	brep := diagnoseWait(t, binSrv, DiagnoseRequest{Workload: ctx.Workload, Node: ctx.IP})
	if jrep.Diagnosis == nil || brep.Diagnosis == nil {
		t.Fatalf("missing diagnosis: json %+v, binary %+v", jrep, brep)
	}
	jd, bd := jrep.Diagnosis, brep.Diagnosis
	if !reflect.DeepEqual(jd, bd) {
		t.Fatalf("diagnoses diverged:\njson   %+v\nbinary %+v", jd, bd)
	}
}
