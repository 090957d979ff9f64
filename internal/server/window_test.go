package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// waitSamples blocks until the stream has applied n samples.
func waitSamples(t *testing.T, st *stream, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.ingested.Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("ingested %d samples, want %d", st.ingested.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

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
			row[0] = 0 // zero placeholder: stored as NaN
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

// mustStream returns ctx's stream, which exists once ctx is trained.
func mustStream(t *testing.T, srv *Server, ctx core.Context) *stream {
	t.Helper()
	st, err := srv.stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return st
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

// allValid returns samples with every implicit "all genuine" made explicit:
// a nil metric mask becomes all-true, a nil CPI flag becomes true. The window
// content is unchanged.
func allValid(samples []Sample) []Sample {
	out := make([]Sample, len(samples))
	cpiOK := true
	for i, s := range samples {
		if s.Valid == nil {
			s.Valid = make([]bool, metrics.Count)
			for m := range s.Valid {
				s.Valid[m] = true
			}
		}
		if s.CPIValid == nil {
			s.CPIValid = &cpiOK
		}
		out[i] = s
	}
	return out
}

// absPearson is a custom (non-MIC) association measure: |Pearson r|.
func absPearson(x, y []float64) float64 {
	r, err := stats.Pearson(x, y)
	if err != nil {
		return 0
	}
	return math.Abs(r)
}

// TestStreamWindowDiagnosisMatchesExplicit: diagnosing the stream's sliding
// window must produce the identical wire diagnosis as submitting the same
// window as explicit samples to a server that never ingested — on clean,
// faulted and partially masked telemetry, after a bulk batch that replaced
// the window outright, and under a custom association measure. The report
// cache is content-addressed, so on the ingesting server the window, its
// content as explicit samples, and that content with all-true masks spelled
// out are one entry.
func TestStreamWindowDiagnosisMatchesExplicit(t *testing.T) {
	const windowCap = 40
	custom := core.DefaultConfig()
	custom.Assoc = absPearson
	cases := []struct {
		name      string
		cfg       core.Config
		decouple  map[int]bool
		maskEvery int
		cuts      []int // ingest batch boundaries within the 46-tick run
	}{
		// Two batches so the window slides (46 > cap 40).
		{name: "clean-healthy", cfg: core.DefaultConfig(), cuts: []int{20}},
		{name: "clean-faulted", cfg: core.DefaultConfig(), decouple: map[int]bool{1: true, 2: true}, cuts: []int{20}},
		{name: "masked", cfg: core.DefaultConfig(), decouple: map[int]bool{3: true}, maskEvery: 7, cuts: []int{20}},
		// A batch at least as long as the window replaces it, then a small
		// one slides it.
		{name: "bulk-then-small", cfg: core.DefaultConfig(), decouple: map[int]bool{1: true, 2: true}, cuts: []int{windowCap + 2}},
		{name: "bulk-then-small-masked", cfg: core.DefaultConfig(), decouple: map[int]bool{3: true}, maskEvery: 7, cuts: []int{windowCap + 2}},
		{name: "custom-assoc", cfg: custom, decouple: map[int]bool{1: true, 2: true}, cuts: []int{20}},
		{name: "custom-assoc-masked", cfg: custom, decouple: map[int]bool{3: true}, maskEvery: 7, cuts: []int{20}},
	}
	rng := stats.NewRNG(1301)
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, _, err := New(Config{Core: tc.cfg, Workers: 2, WindowCap: windowCap})
			if err != nil {
				t.Fatal(err)
			}
			// ref never ingests: it answers the explicit-sample side from a
			// cold cache, so the comparison below is two independent
			// computations, not a report-cache hit.
			ref, _, err := New(Config{Core: tc.cfg, Workers: 2, WindowCap: windowCap})
			if err != nil {
				t.Fatal(err)
			}
			faulty := coupledSamples(rng.Fork(90), 30, 8, map[int]bool{1: true, 2: true}, 0)
			for _, s := range []*Server{srv, ref} {
				trainContext(t, s, ctx, 1300) // same seed: same invariants on both
				if err := s.sys.BuildSignature(ctx, "cpu-hog", mustTrace(t, ctx, faulty)); err != nil {
					t.Fatal(err)
				}
			}
			window := coupledSamples(rng.Fork(int64(i)), 46, 8, tc.decouple, tc.maskEvery)
			lo := 0
			for _, hi := range append(tc.cuts, len(window)) {
				rec := postJSON(t, srv.Handler(), "/v1/ingest", IngestRequest{
					Workload: ctx.Workload, Node: ctx.IP, Samples: window[lo:hi],
				})
				if rec.Code != http.StatusAccepted {
					t.Fatalf("ingest: status %d, body %s", rec.Code, rec.Body)
				}
				lo = hi
			}
			waitSamples(t, mustStream(t, srv, ctx), int64(len(window)))
			tail := window[len(window)-windowCap:]

			// The window's trace is the trace of its content submitted as
			// samples (compared printed: masked entries are NaN) — a stream
			// carries numbers and validity flags, no stage marks.
			got, want := mustStream(t, srv, ctx).windowTrace(), mustTrace(t, ctx, tail)
			if len(got.Stages) != 0 || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("window trace is not TraceFromSamples of its content (%d stage marks)", len(got.Stages))
			}

			fromStream := diagnoseWait(t, srv, DiagnoseRequest{Workload: ctx.Workload, Node: ctx.IP})
			asSamples := DiagnoseRequest{Workload: ctx.Workload, Node: ctx.IP, Samples: tail}
			explicit := diagnoseWait(t, ref, asSamples)
			a, b := fromStream.Diagnosis, explicit.Diagnosis
			if a == nil || b == nil {
				t.Fatalf("missing diagnosis: stream %+v explicit %+v", fromStream, explicit)
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("stream-window diagnosis diverged from explicit samples:\nstream   %+v\nexplicit %+v", a, b)
			}

			// Re-diagnosing the unchanged window must hit the report cache —
			// and so must its content submitted as explicit samples, with or
			// without the all-true masks spelled out: one entry serves all.
			spelled := asSamples
			spelled.Samples = allValid(asSamples.Samples)
			for name, req := range map[string]DiagnoseRequest{
				"stream window":           {Workload: ctx.Workload, Node: ctx.IP},
				"explicit samples":        asSamples,
				"explicit all-true masks": spelled,
			} {
				before := srv.Stats()
				again := diagnoseWait(t, srv, req)
				if !reflect.DeepEqual(again.Diagnosis, a) {
					t.Errorf("%s: cached re-diagnosis diverged", name)
				}
				after := srv.Stats()
				if after.AssocCacheHits != before.AssocCacheHits+1 || after.AssocCacheEntries != before.AssocCacheEntries {
					t.Errorf("%s: re-diagnosis missed the window's report entry: hits %d -> %d, entries %d -> %d", name,
						before.AssocCacheHits, after.AssocCacheHits, before.AssocCacheEntries, after.AssocCacheEntries)
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

// TestHeldCPIIsAGap: an invalid CPI entry is a gap to the drift monitor
// whatever its placeholder. A client that holds (or invents) a non-zero
// value behind cpiValid:false keeps it in the window, flagged invalid, but
// the monitor never scores it: a run of wildly anomalous held readings longer
// than Consecutive raises no alert, and the same readings sent as valid do.
func TestHeldCPIIsAGap(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	trainContext(t, srv, ctx, 1400)
	st := mustStream(t, srv, ctx)
	rng := stats.NewRNG(1401)
	// ingest returns once the batch's task — window slide and monitor
	// offers — has finished: tasks of one queue run in order, so a task
	// queued behind it runs after it.
	ingest := func(samples []Sample) {
		t.Helper()
		rec := postJSON(t, srv.Handler(), "/v1/ingest", IngestRequest{Workload: ctx.Workload, Node: ctx.IP, Samples: samples})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("ingest: status %d, body %s", rec.Code, rec.Body)
		}
		done := make(chan struct{})
		if err := srv.sched.enqueue(st.queue, func() { close(done) }); err != nil {
			t.Fatal(err)
		}
		<-done
	}
	ingest(coupledSamples(rng.Fork(1), 20, 8, nil, 0))
	if st.alerts.Load() != 0 {
		t.Fatalf("normal warm-up: %d alerts", st.alerts.Load())
	}

	det, err := srv.sys.Detector(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := 4 * det.Consecutive
	held := coupledSamples(rng.Fork(2), n, 8, nil, 0)
	invalid := false
	for i := range held {
		held[i].CPI = 100 + 900*float64(i%2) // alternating: anomalous under any forecast
		held[i].CPIValid = &invalid
	}
	ingest(held)
	if got := st.alerts.Load(); got != 0 {
		t.Fatalf("%d alerts on %d held CPI readings flagged invalid, want none", got, n)
	}
	win := st.windowTrace()
	for i := 0; i < n; i++ {
		k := win.Len() - n + i
		if win.CPI[k] != held[i].CPI || win.CPIValid[k] {
			t.Fatalf("held CPI %d stored as %v (valid %v), want the placeholder flagged invalid", i, win.CPI[k], win.CPIValid[k])
		}
	}

	valid := true
	for i := range held {
		held[i].CPIValid = &valid
	}
	ingest(held)
	if st.alerts.Load() == 0 {
		t.Fatalf("the same %d anomalous CPI readings sent as valid raised no alert", n)
	}
}
