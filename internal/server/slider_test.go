package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// coupledSamples synthesises n wire samples whose first `coupled` metrics
// follow one latent series (strong invariants) with the rest independent
// noise; decouple breaks listed metrics, maskEvery > 0 invalidates every
// maskEvery-th tick of metric 0 (zero placeholder — stored as NaN).
func coupledSamples(rng *stats.RNG, n, coupled int, decouple map[int]bool, maskEvery int) []Sample {
	out := make([]Sample, n)
	for t := 0; t < n; t++ {
		latent := rng.Uniform(0, 1)
		row := make([]float64, metrics.Count)
		for m := range row {
			switch {
			case decouple[m]:
				row[m] = rng.Uniform(0, 1)
			case m < coupled:
				row[m] = float64(m+1)*latent + 0.1 + rng.Normal(0, 0.02)
			default:
				row[m] = rng.Uniform(0, 1)
			}
		}
		s := Sample{Metrics: row, CPI: 1.0 + 0.3*latent}
		if maskEvery > 0 && t%maskEvery == 0 {
			valid := make([]bool, metrics.Count)
			for i := range valid {
				valid[i] = true
			}
			valid[0] = false
			row[0] = 0 // zero placeholder: stored as NaN under the mask policy
			s.Valid = valid
		}
		out[t] = s
	}
	return out
}

// trainContext trains the server's system for ctx from synthetic runs.
func trainContext(t *testing.T, srv *Server, ctx core.Context, seed int64) {
	t.Helper()
	rng := stats.NewRNG(seed)
	var runs []*metrics.Trace
	var cpis [][]float64
	for i := 0; i < 5; i++ {
		tr, err := TraceFromSamples(ctx.Workload, ctx.IP, coupledSamples(rng.Fork(int64(i)), 60, 8, nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := srv.sys.TrainPerformanceModel(ctx, cpis); err != nil {
		t.Fatal(err)
	}
	if err := srv.sys.TrainInvariants(ctx, runs); err != nil {
		t.Fatal(err)
	}
}

// waitWindow blocks until the stream's window reaches n ticks.
func waitWindow(t *testing.T, st *stream, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.windowLen() != n {
		if time.Now().After(deadline) {
			t.Fatalf("window never reached %d ticks (at %d)", n, st.windowLen())
		}
		time.Sleep(time.Millisecond)
	}
}

// diagnoseWait runs a wait=true diagnose and returns the finished report.
func diagnoseWait(t *testing.T, srv *Server, req DiagnoseRequest) *Report {
	t.Helper()
	req.Wait = true
	rec := postJSON(t, srv.Handler(), "/v1/diagnose", req)
	if rec.Code != http.StatusOK {
		t.Fatalf("diagnose: status %d, body %s", rec.Code, rec.Body)
	}
	var resp DiagnoseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Status != StatusDone {
		t.Fatalf("report not done: %+v", resp.Report)
	}
	return resp.Report
}

// TestSliderWindowDiagnosisMatchesExplicit: diagnosing the stream's sliding
// window (slider-snapshot scorer) must produce the identical wire diagnosis
// as submitting the same window as explicit samples (fresh batch
// preparation) — on clean, faulted and partially masked telemetry. The
// report cache is content-addressed, so the second of the two is a hit on
// the first one's entry.
func TestSliderWindowDiagnosisMatchesExplicit(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 2, WindowCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	// ref never ingests: it answers the explicit-sample side from a cold
	// cache, so the comparison below is slider snapshots vs fresh batch
	// preparation, not a report-cache hit.
	ref, _, err := New(Config{Core: core.DefaultConfig(), Workers: 2, WindowCap: 40})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	trainContext(t, srv, ctx, 1300)
	rng := stats.NewRNG(1301)
	if err := srv.sys.BuildSignature(ctx, "cpu-hog",
		mustTrace(t, ctx, coupledSamples(rng.Fork(90), 30, 8, map[int]bool{1: true, 2: true}, 0))); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name      string
		decouple  map[int]bool
		maskEvery int
	}{
		{name: "clean-healthy"},
		{name: "clean-faulted", decouple: map[int]bool{1: true, 2: true}},
		{name: "masked", decouple: map[int]bool{3: true}, maskEvery: 7},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			node := string(rune('b' + i)) // distinct stream per case
			cctx := core.Context{Workload: ctx.Workload, IP: "10.0.0." + node}
			trainContext(t, srv, cctx, 1300) // same seed: same invariants per context
			trainContext(t, ref, cctx, 1300)
			window := coupledSamples(rng.Fork(int64(i)), 46, 8, tc.decouple, tc.maskEvery)
			// Ingest in two batches so the window slides (46 > cap 40).
			for _, batch := range [][]Sample{window[:20], window[20:]} {
				rec := postJSON(t, srv.Handler(), "/v1/ingest", IngestRequest{
					Workload: cctx.Workload, Node: cctx.IP, Samples: batch,
				})
				if rec.Code != http.StatusAccepted {
					t.Fatalf("ingest: status %d, body %s", rec.Code, rec.Body)
				}
			}
			st := srv.stream(cctx)
			waitWindow(t, st, 40)
			if st.sliders == nil {
				t.Fatal("sliders not enabled under the stock MIC config")
			}

			fromStream := diagnoseWait(t, srv, DiagnoseRequest{Workload: cctx.Workload, Node: cctx.IP})
			asSamples := DiagnoseRequest{Workload: cctx.Workload, Node: cctx.IP, Samples: window[len(window)-40:]}
			explicit := diagnoseWait(t, ref, asSamples)
			a, b := fromStream.Diagnosis, explicit.Diagnosis
			if a == nil || b == nil {
				t.Fatalf("missing diagnosis: stream %+v explicit %+v", fromStream, explicit)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("slider-window diagnosis diverged from explicit samples:\nstream   %+v\nexplicit %+v", a, b)
			}

			// Re-diagnosing the unchanged window must hit the report cache —
			// and so must its content submitted as explicit samples: one
			// entry serves both.
			for _, req := range []DiagnoseRequest{{Workload: cctx.Workload, Node: cctx.IP}, asSamples} {
				before := srv.sys.AssocCacheStats()
				again := diagnoseWait(t, srv, req)
				if !reflect.DeepEqual(again.Diagnosis, a) {
					t.Error("cached re-diagnosis diverged")
				}
				after := srv.sys.AssocCacheStats()
				if after.Hits != before.Hits+1 || after.Entries != before.Entries {
					t.Errorf("re-diagnosis (explicit samples: %v) missed the window's report entry: %+v -> %+v",
						req.Samples != nil, before, after)
				}
			}
		})
	}
}

func mustTrace(t *testing.T, ctx core.Context, samples []Sample) *metrics.Trace {
	t.Helper()
	tr, err := TraceFromSamples(ctx.Workload, ctx.IP, samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSlidersGatedByAssoc: a custom association measure must disable the
// slider fast path — its scores are not the batched MIC's.
func TestSlidersGatedByAssoc(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Assoc = func(x, y []float64) float64 { return 0.5 }
	cfg.AssocName = "custom"
	srv, _, err := New(Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if srv.useSliders {
		t.Fatal("sliders enabled for a custom association measure")
	}
	rec := postJSON(t, srv.Handler(), "/v1/ingest", IngestRequest{
		Workload: "wordcount", Node: "10.0.0.9", Samples: testSamples(4),
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: status %d", rec.Code)
	}
	st := srv.stream(core.Context{Workload: "wordcount", IP: "10.0.0.9"})
	waitWindow(t, st, 4)
	if st.sliders != nil {
		t.Error("stream built sliders despite the gate")
	}
}
