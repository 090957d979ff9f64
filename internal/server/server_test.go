package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
)

func testSamples(n int) []Sample {
	out := make([]Sample, n)
	for t := range out {
		row := make([]float64, metrics.Count)
		for m := range row {
			row[m] = float64(m + t)
		}
		out[t] = Sample{Metrics: row, CPI: 1.0}
	}
	return out
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestIngestShedsWith429 fills one profile's queue while the only slot is
// wedged and asserts the next batch is refused with 429 + Retry-After, then
// that releasing the slot drains everything.
func TestIngestShedsWith429(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	trainContext(t, srv, ctx, 11)
	st := mustStream(t, srv, ctx)

	// Wedge the only worker inside a task on this stream's queue.
	gate := make(chan struct{})
	entered := make(chan struct{})
	if err := srv.sched.enqueue(st.queue, func() { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-entered // the worker is now blocked mid-drain; the queue is empty again

	body := IngestRequest{Workload: "wordcount", Node: "10.0.0.2", Samples: testSamples(1)}
	for i := 0; i < 2; i++ { // fill to cap
		rec := postJSON(t, srv.Handler(), "/v1/ingest", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("fill %d: status %d, body %s", i, rec.Code, rec.Body)
		}
	}
	rec := postJSON(t, srv.Handler(), "/v1/ingest", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap ingest: status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if got := srv.ctr.ingestShed.Load(); got != 1 {
		t.Errorf("ingestShed = %d, want 1", got)
	}

	close(gate)
	deadline := time.Now().Add(5 * time.Second)
	for st.windowLen() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("accepted batches never applied: window %d, want 2", st.windowLen())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFrameKeepAliveSurvivesShed: an agent streaming binary frames over one
// keep-alive connection is shed with 429 + Retry-After while its profile
// queue is full, keeps that connection, and is admitted on it again once the
// queue drains; /v1/stats counts exactly the sheds the agent saw.
func TestFrameKeepAliveSurvivesShed(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	var conns []string // local address of the connection each request rode
	do := func(req *http.Request) *http.Response {
		t.Helper()
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
			if len(conns) > 0 && !info.Reused {
				t.Errorf("request %d dialed a new connection", len(conns))
			}
			conns = append(conns, info.Conn.LocalAddr().String())
		}}
		resp, err := hc.Do(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ingestShed := func() int64 {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, hs.URL+"/v1/stats", nil)
		resp := do(req)
		defer resp.Body.Close()
		var st Stats
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		return st.IngestShed
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.5"}
	frame, err := AppendFrame(nil, ctx.Workload, ctx.IP, testSamples(3))
	if err != nil {
		t.Fatal(err)
	}
	post := func() *http.Response {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, hs.URL+"/v1/ingest", bytes.NewReader(frame))
		req.Header.Set("Content-Type", ContentTypeFrame)
		resp := do(req)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	shedBefore := ingestShed()
	trainContext(t, srv, ctx, 12)
	st := mustStream(t, srv, ctx)
	gate := make(chan struct{})
	entered := make(chan struct{})
	if err := srv.sched.enqueue(st.queue, func() { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-entered // the only worker is wedged; the queue is empty again

	accepted, shed := 0, 0
	for shed == 0 {
		resp := post()
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After header")
			}
		default:
			t.Fatalf("frame %d: status %d", accepted+shed, resp.StatusCode)
		}
		if accepted > 2 {
			t.Fatalf("%d frames admitted past a queue bound of 2", accepted)
		}
	}

	close(gate)
	waitWindow(t, st, 3*accepted)
	if resp := post(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("frame after the drain: status %d, want 202", resp.StatusCode)
	}
	if got := ingestShed() - shedBefore; got != int64(shed) {
		t.Errorf("ingestShed rose by %d, the agent saw %d 429s", got, shed)
	}
	for i, c := range conns {
		if c != conns[0] {
			t.Errorf("request %d rode %s, request 0 rode %s", i, c, conns[0])
		}
	}
}

// TestDiagnoseShedWithdrawsReport: a diagnose refused at admission must not
// leave a pending report behind. diagnoseShed counts every queued request
// shed at admission, a signature label as well as a diagnose.
func TestDiagnoseShedWithdrawsReport(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig(), Workers: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "sort", IP: "10.0.0.3"}
	trainContext(t, srv, ctx, 13)
	st := mustStream(t, srv, ctx)
	gate := make(chan struct{})
	entered := make(chan struct{})
	if err := srv.sched.enqueue(st.queue, func() { close(entered); <-gate }); err != nil {
		t.Fatal(err)
	}
	<-entered

	body := DiagnoseRequest{Workload: "sort", Node: "10.0.0.3", Samples: testSamples(4)}
	if rec := postJSON(t, srv.Handler(), "/v1/diagnose", body); rec.Code != http.StatusAccepted {
		t.Fatalf("first diagnose: status %d", rec.Code)
	}
	rec := postJSON(t, srv.Handler(), "/v1/diagnose", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap diagnose: status %d, want 429", rec.Code)
	}
	if got := srv.store.len(); got != 1 {
		t.Errorf("report store holds %d reports after shed, want 1", got)
	}
	if got := srv.ctr.reportsPending.Load(); got != 1 {
		t.Errorf("reportsPending = %d, want 1", got)
	}
	label := SignatureRequest{Workload: "sort", Node: "10.0.0.3", Problem: "cpu-hog", Samples: testSamples(4)}
	if rec := postJSON(t, srv.Handler(), "/v1/signatures", label); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-cap signature label: status %d, want 429", rec.Code)
	}
	if got := srv.Stats().DiagnoseShed; got != 2 {
		t.Errorf("diagnoseShed = %d after one diagnose and one label shed, want 2", got)
	}
	close(gate)
}

// TestBadRequests exercises the admission validation surface.
func TestBadRequests(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"missing context", "/v1/ingest", IngestRequest{Samples: testSamples(1)}, 400},
		{"empty batch", "/v1/ingest", IngestRequest{Workload: "w", Node: "n"}, 400},
		{"stage marks", "/v1/ingest", map[string]any{"workload": "w", "node": "n", "samples": testSamples(1),
			"stages": []map[string]any{{"stage": "map", "index": 0}}}, 400},
		{"short vector", "/v1/ingest", IngestRequest{Workload: "w", Node: "n",
			Samples: []Sample{{Metrics: []float64{1, 2}}}}, 400},
		{"bad mask length", "/v1/ingest", IngestRequest{Workload: "w", Node: "n",
			Samples: func() []Sample { s := testSamples(1); s[0].Valid = []bool{true}; return s }()}, 400},
		{"untrained diagnose", "/v1/diagnose", DiagnoseRequest{Workload: "w", Node: "n",
			Samples: testSamples(4), Wait: true}, 409},
		{"signature missing problem", "/v1/signatures", SignatureRequest{Workload: "w", Node: "n"}, 400},
		{"signature untrained", "/v1/signatures", SignatureRequest{Workload: "w", Node: "n",
			Problem: "p", Samples: testSamples(4)}, 409},
	}
	var refused int64
	for _, tc := range cases {
		rec := postJSON(t, h, tc.path, tc.body)
		if tc.want >= 400 {
			refused++
		}
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
		}
		if tc.name == "stage marks" && !strings.Contains(rec.Body.String(), `unknown field \"stages\"`) {
			t.Errorf("%s: body %s, want the unknown-field refusal", tc.name, rec.Body)
		}
	}
	if got := srv.ctr.badRequests.Load(); got != refused {
		t.Errorf("badRequests = %d, want one per refusal above (%d)", got, refused)
	}

	// The untrained diagnose above was refused before a report was issued.
	if n, failed := srv.store.len(), srv.ctr.reportsFailed.Load(); n != 0 || failed != 0 {
		t.Errorf("untrained diagnose left %d reports (%d failed), want none", n, failed)
	}
}

// TestUntrainedContextsHoldNoState: every path that would open a stream —
// JSON ingest, frame ingest, diagnose with samples, a label — refuses a
// context without a trained performance model with 409, and 10 000 such
// contexts leave no stream, no profile and no report behind. A refusal
// caches nothing: a refused context trained afterwards is accepted.
func TestUntrainedContextsHoldNoState(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	trainContext(t, srv, core.Context{Workload: "wordcount", IP: "10.0.0.2"}, 21)
	profiles := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/profiles", nil))
		var pr ProfilesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
			t.Fatal(err)
		}
		return pr.Count
	}
	profilesBefore, before := profiles(), srv.Stats()
	samples := testSamples(4)
	wrong := make(map[string]int) // per path: answers that were not the refusal
	firstWrong := make(map[string]string)
	for i := 0; i < 10000; i++ {
		node := fmt.Sprintf("10.9.%d.%d", i/256, i%256)
		for _, r := range []struct {
			what string
			rec  *httptest.ResponseRecorder
		}{
			{"json ingest", postJSON(t, h, "/v1/ingest", IngestRequest{Workload: "wordcount", Node: node, Samples: samples})},
			{"frame ingest", postFrame(t, h, "wordcount", node, samples)},
			{"diagnose", postJSON(t, h, "/v1/diagnose", DiagnoseRequest{Workload: "wordcount", Node: node, Samples: samples, Wait: true})},
			{"label", postJSON(t, h, "/v1/signatures", SignatureRequest{Workload: "wordcount", Node: node, Problem: "p", Samples: samples})},
		} {
			if r.rec.Code != http.StatusConflict || !strings.Contains(r.rec.Body.String(), "no performance model") {
				if wrong[r.what]++; wrong[r.what] == 1 {
					firstWrong[r.what] = fmt.Sprintf("%s: status %d, body %s", node, r.rec.Code, strings.TrimSpace(r.rec.Body.String()))
				}
			}
		}
	}
	for what, n := range wrong {
		t.Errorf("%s: %d of 10000 untrained contexts not refused with 409 naming the missing model (first %s)", what, n, firstWrong[what])
	}
	after := srv.Stats()
	if after.Streams != 0 || len(srv.streams) != 0 {
		t.Errorf("%d streams (%d in the table) after 10 000 refused contexts, want 0", after.Streams, len(srv.streams))
	}
	if got := profiles(); got != profilesBefore {
		t.Errorf("/v1/profiles lists %d rows, %d before the refusals", got, profilesBefore)
	}
	if after.ReportsPending != before.ReportsPending || after.ReportsDone != before.ReportsDone ||
		after.ReportsFailed != before.ReportsFailed || srv.store.len() != 0 {
		t.Errorf("reports pending %d, done %d, failed %d, stored %d after refusals; want %d, %d, %d, 0",
			after.ReportsPending, after.ReportsDone, after.ReportsFailed, srv.store.len(),
			before.ReportsPending, before.ReportsDone, before.ReportsFailed)
	}

	refused := core.Context{Workload: "wordcount", IP: "10.9.0.0"}
	trainContext(t, srv, refused, 22)
	if rec := postJSON(t, h, "/v1/ingest", IngestRequest{Workload: refused.Workload, Node: refused.IP, Samples: samples}); rec.Code != http.StatusAccepted {
		t.Fatalf("ingest on %v after training: status %d, body %s; want 202", refused, rec.Code, rec.Body)
	}
	if got := srv.Stats().Streams; got != 1 {
		t.Errorf("%d streams after the trained context's first ingest, want 1", got)
	}
}

// TestOversizedBodyIs413: a body past maxBodyBytes is 413 Request Entity Too
// Large on both ingest encodings and on diagnose, never a 400 naming a
// decode error, and each counts as one bad request.
func TestOversizedBodyIs413(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	// A JSON string still open at the bound: Decode keeps reading until the
	// reader refuses, as it would for a huge batch.
	huge := `{"workload":"` + strings.Repeat("w", 9<<20)
	for _, tc := range []struct{ name, path, contentType string }{
		{"json ingest", "/v1/ingest", "application/json"},
		{"frame ingest", "/v1/ingest", ContentTypeFrame},
		{"diagnose", "/v1/diagnose", "application/json"},
	} {
		before := srv.ctr.badRequests.Load()
		req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(huge))
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (body %.200s)", tc.name, rec.Code, rec.Body)
		}
		if got := srv.ctr.badRequests.Load() - before; got != 1 {
			t.Errorf("%s: badRequests rose by %d, want 1", tc.name, got)
		}
	}
}

func TestConfigClamps(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Workers < 1 || cfg.QueueCap != DefaultQueueCap ||
		cfg.WindowCap != DefaultWindowCap || cfg.ReportCap != DefaultReportCap {
		t.Errorf("zero config defaults wrong: %+v", cfg)
	}
	if got := (Config{WindowCap: 1}).withDefaults().WindowCap; got != minWindowCap {
		t.Errorf("WindowCap 1 clamps to %d, want %d", got, minWindowCap)
	}
	if got := (Config{WindowCap: 1 << 20}).withDefaults().WindowCap; got != maxWindowCap {
		t.Errorf("huge WindowCap clamps to %d, want %d", got, maxWindowCap)
	}
	if _, _, err := New(Config{Core: core.Config{Epsilon: 2}}); err == nil {
		t.Error("New accepted an invalid core config")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	if h.quantile(0.5) != 0 || h.meanMS() != 0 {
		t.Error("empty histogram not zero")
	}
	for i := 0; i < 90; i++ {
		h.observe(800 * time.Microsecond) // bucket ≤ 1 ms
	}
	for i := 0; i < 10; i++ {
		h.observe(80 * time.Millisecond) // bucket ≤ 100 ms
	}
	if got := h.quantile(0.50); got != 1 {
		t.Errorf("p50 = %v, want 1 (bucket upper bound)", got)
	}
	if got := h.quantile(0.95); got != 100 {
		t.Errorf("p95 = %v, want 100", got)
	}
	if got := h.quantile(0.99); got != 100 {
		t.Errorf("p99 = %v, want 100", got)
	}
	if mean := h.meanMS(); mean < 8 || mean > 10 {
		t.Errorf("mean = %v, want ~8.7", mean)
	}
	h.observe(time.Minute) // overflow bucket
	if got := h.quantile(1.0); got != latencyBucketsMS[numLatencyBuckets-1] {
		t.Errorf("overflow quantile = %v, want last bound", got)
	}
}

// TestHistogramQuantileNearestRank: quantiles rank by ceil(q·N), so a small
// sample reports its tail from the tail — with 10 observations p95 and p99
// are the slowest one, with 3 the median is the middle one, not the fastest.
func TestHistogramQuantileNearestRank(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 100} {
		// The k-th fastest observation (1-based) lands in bucket (k-1)·10/N,
		// one observation per bucket up to N = 10.
		bucketOf := func(k int) int { return (k - 1) * 10 / max(n, 10) }
		var h histogram
		for k := 1; k <= n; k++ {
			h.observe(time.Duration(0.9 * latencyBucketsMS[bucketOf(k)] * float64(time.Millisecond)))
		}
		for _, pct := range []int{50, 95, 99, 100} {
			rank := (pct*n + 99) / 100 // ceil(pct/100 · n)
			want := latencyBucketsMS[bucketOf(rank)]
			if got := h.quantile(float64(pct) / 100); got != want {
				t.Errorf("N=%d p%d = %v ms, want %v (bucket of observation %d)", n, pct, got, want, rank)
			}
		}
	}
}

// TestNewRefusesBrokenStore: only a StoreDir that does not exist is a cold
// boot. One that exists but cannot be read — a file in its place, a directory
// without permissions — refuses to boot instead of starting empty and saving
// over it on Shutdown.
func TestNewRefusesBrokenStore(t *testing.T) {
	dir := t.TempDir()
	srv, rep, err := New(Config{StoreDir: filepath.Join(dir, "not-yet")})
	if err != nil || rep != nil {
		t.Fatalf("missing store: report %v, err %v; want a cold boot", rep, err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := New(Config{StoreDir: file}); err == nil {
		t.Error("New booted from a file in place of the store directory")
	}
	if got, err := os.ReadFile(file); err != nil || string(got) != "not a directory" {
		t.Errorf("refused store was touched: %q, %v", got, err)
	}

	t.Run("unreadable", func(t *testing.T) {
		if os.Getuid() == 0 {
			t.Skip("running as root: a 0o000 directory is still readable")
		}
		locked := filepath.Join(dir, "locked")
		if err := os.Mkdir(locked, 0o000); err != nil {
			t.Fatal(err)
		}
		if _, _, err := New(Config{StoreDir: locked}); err == nil {
			t.Error("New booted from an unreadable store directory")
		}
	})
}

func TestReportStoreEviction(t *testing.T) {
	s := newReportStore(2)
	a := s.create("w", "n")
	b := s.create("w", "n")
	c := s.create("w", "n") // over cap, but nothing completed: all retained
	if s.len() != 3 {
		t.Fatalf("len = %d, want 3 (pending never evicted)", s.len())
	}
	a.complete(nil, "x", 1)
	b.complete(nil, "x", 1)
	d := s.create("w", "n") // triggers eviction of the completed overage
	if s.len() != 2 {
		t.Fatalf("len = %d after eviction, want 2", s.len())
	}
	for _, r := range []*report{a, b} {
		if _, ok := s.get(r.r.ID); ok {
			t.Errorf("completed report %s survived eviction", r.r.ID)
		}
	}
	for _, r := range []*report{c, d} {
		if _, ok := s.get(r.r.ID); !ok {
			t.Errorf("pending report %s evicted, want retained", r.r.ID)
		}
	}
	// IDs are dense and monotone.
	for i, r := range []*report{a, b, c, d} {
		if want := fmt.Sprintf("r-%08d", i+1); r.r.ID != want {
			t.Errorf("ID %d = %s, want %s", i, r.r.ID, want)
		}
	}

	// retained asserts exactly the given reports are held, in issue order.
	retained := func(s *reportStore, want ...*report) {
		t.Helper()
		got := s.live()
		var wantIDs []string
		for _, r := range want {
			wantIDs = append(wantIDs, r.r.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantIDs) || s.len() != len(want) {
			t.Errorf("retained %v (%d by ID), want %v", got, s.len(), wantIDs)
		}
	}

	// A pending head is skipped: the oldest completed report behind it goes.
	s = newReportStore(2)
	a, b = s.create("w", "n"), s.create("w", "n")
	b.complete(nil, "x", 1)
	c = s.create("w", "n")
	retained(s, a, c)

	// A later report completing first is evicted before older pending ones,
	// and once the head completes it goes next, the new head after it.
	s = newReportStore(2)
	a, b, c = s.create("w", "n"), s.create("w", "n"), s.create("w", "n")
	c.complete(nil, "x", 1)
	d = s.create("w", "n")
	retained(s, a, b, d)
	a.complete(nil, "x", 1)
	b.complete(nil, "x", 1)
	e := s.create("w", "n")
	retained(s, d, e)
	// remove withdraws from behind the advanced head, and eviction goes on
	// from it.
	f := s.create("w", "n")
	s.remove(f.r.ID)
	retained(s, d, e)
	d.complete(nil, "x", 1)
	e.complete(nil, "x", 1)
	g, h := s.create("w", "n"), s.create("w", "n")
	retained(s, g, h)
	if _, ok := s.get(f.r.ID); ok {
		t.Error("removed report still retrievable")
	}
}

// BenchmarkReportStoreAtCap times one create against a store holding
// DefaultReportCap completed reports — every verdict in a storm, once the
// store has filled. A head offset makes the eviction O(1): ≈ 0.55–0.62 µs/op
// on a 2-core Xeon, against ≈ 4.4–5.9 µs/op when each eviction shifted the
// remaining 4 095 IDs.
func BenchmarkReportStoreAtCap(b *testing.B) {
	s := newReportStore(DefaultReportCap)
	for i := 0; i < DefaultReportCap; i++ {
		s.create("w", "n").complete(nil, "", 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.create("w", "n").complete(nil, "", 1)
	}
}

// TestMaskedSamplesRideMaskedPipeline: a batch with validity masks must
// produce a masked trace with NaN in the gap positions.
func TestMaskedSamplesRideMaskedPipeline(t *testing.T) {
	s := testSamples(3)
	valid := make([]bool, metrics.Count)
	for i := range valid {
		valid[i] = true
	}
	valid[0] = false
	s[1].Valid = valid
	s[1].Metrics[0] = 0 // zero placeholder → NaN server-side
	f := false
	s[2].CPIValid = &f
	s[2].CPI = 0

	tr, err := TraceFromSamples("wordcount", "10.0.0.5", s)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Valid == nil {
		t.Fatal("trace not masked")
	}
	if v := tr.Rows[0][1]; v == v { // NaN check
		t.Errorf("gap entry = %v, want NaN", v)
	}
	if tr.MetricValid(0)[1] {
		t.Error("gap entry still flagged valid")
	}
	if v := tr.CPI[2]; v == v {
		t.Errorf("gap CPI = %v, want NaN", v)
	}
	if tr.CPIValid[2] {
		t.Error("gap CPI still flagged valid")
	}
}

// len returns the number of retained reports.
func (s *reportStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// live returns the IDs in the eviction order, oldest first.
func (s *reportStore) live() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order[s.head:]...)
}

// stormResponse is a verdict the size the storm workloads serve: a
// 154-invariant tuple, 60 violated-pair hints, 30 unknown pairs, 5 causes.
func stormResponse() DiagnoseResponse {
	pair := func(k int) string {
		return metrics.Names[k%metrics.Count] + "-" + metrics.Names[(k*7+3)%metrics.Count]
	}
	d := &Diagnosis{
		Workload: "wordcount", Node: "10.0.0.2",
		Tuple:      strings.Repeat("0110100", 22),
		Invariants: 154, Violations: 60,
		Coverage: 0.8051948051948052, Confidence: 0.7312345678901234,
		RootCause: "cpu-hog",
	}
	for k := 0; k < 60; k++ {
		d.Hints = append(d.Hints, pair(k))
	}
	for k := 60; k < 90; k++ {
		d.Unknown = append(d.Unknown, pair(k))
	}
	for _, p := range []string{"cpu-hog", "mem-hog", "disk-hog", "net-drop", "lock-r"} {
		d.Causes = append(d.Causes, Cause{Problem: p, Score: 0.7123456789 / float64(len(d.Causes)+1)})
	}
	rep := Report{ID: "r-00000001", Status: StatusDone, Workload: d.Workload, Node: d.Node, Diagnosis: d, LatencyMS: 0.04321}
	return DiagnoseResponse{ID: rep.ID, Status: rep.Status, Report: &rep}
}

// BenchmarkWriteJSON times one storm-sized verdict through writeJSON into a
// ResponseRecorder (its allocations included). Compact into a pooled buffer,
// sent with its length: ≈ 10–11 µs/op, 4.1 KB and 12 allocs/op on a 2-core
// Xeon, against ≈ 34–42 µs/op, 23.8 KB and 23 allocs/op when every response
// was indented straight into the ResponseWriter.
func BenchmarkWriteJSON(b *testing.B) {
	v := stormResponse()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		writeJSON(httptest.NewRecorder(), http.StatusOK, v)
	}
}

// TestWriteJSONRefusesUnencodable: a payload JSON cannot carry (a NaN score)
// is answered 500 with the error envelope, length-framed like any other
// response, not with the intended status and an empty body.
func TestWriteJSONRefusesUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, Cause{Problem: "cpu-hog", Score: math.NaN()})
	var env apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, body %q (%v); want 500 with an error envelope", rec.Code, rec.Body, err)
	}
	if !strings.HasPrefix(env.Error, "server: encoding response: ") {
		t.Errorf("error = %q", env.Error)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Errorf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
}
