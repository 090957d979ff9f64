package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// The operator wire contract: bench/ and invarctl decode these keys, so a
// rename or a dropped field is a breaking change however the payload is
// built. A profile trained on windows of another width than the collector's
// is a row like any other, with no keys and no totals of its own.
var (
	statsKeys = []string{
		"alerts", "assocCacheEntries", "assocCacheHitRate", "assocCacheHits", "assocCacheMisses",
		"badRequests", "detectTasks", "diagnoseLatency", "diagnoseShed",
		"ingestBatches", "ingestSamples", "ingestShed",
		"lifecycleEdges", "lifecycleEnabled", "lifecycleObserved", "modelGeneration",
		"profiles", "promotions", "quarantinedEdges", "queueCapacity", "queueDepth",
		"reportsDone", "reportsFailed", "reportsPending", "rollbacks", "shadowAge",
		"sigScanEarlyExitRate", "sigScanEarlyExits", "sigScanEntries", "signatures", "signaturesPosted",
		"sparseExactPairs", "sparseScreenedPairs", "sparseSkippedPairs",
		"streams", "uptimeSec", "workers",
	}
	latencyKeys = []string{"count", "meanMS", "p50MS", "p95MS", "p99MS"}
	profileKeys = []string{
		"alerting", "alerts", "cacheHits", "cacheMisses", "generation", "hasModel",
		"ingested", "invariants", "node", "promotions", "quarantinedEdges", "rollbacks",
		"shadowAge", "signatures", "windowLen", "workload",
	}
)

// getObject GETs path off the handler and decodes the top-level JSON object.
func getObject(t *testing.T, h http.Handler, path string) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %s", path, rec.Code, rec.Body)
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &obj); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return obj
}

func sortedKeys(obj map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestStatsAndProfilesWireKeys pins the exact JSON key sets of GET /v1/stats
// and of one GET /v1/profiles row, and that the two are views of one profile
// snapshot: /v1/stats counts the /v1/profiles rows and sums their signatures.
func TestStatsAndProfilesWireKeys(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Lifecycle = true
	srv, _, err := New(Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	intra := core.Context{Workload: "sort", IP: "10.0.0.2"}
	trainContext(t, srv, intra, 31)

	// One profile over 12-metric windows: the store holds it, and it lists
	// as an ordinary row.
	narrow := core.Context{Workload: "sort", IP: "10.0.0.2~10.0.0.3#shuffle"}
	if err := srv.sys.TrainInvariants(narrow, narrowRuns(t, intra, 41, 3)); err != nil {
		t.Fatal(err)
	}
	if err := srv.sys.BuildSignature(narrow, "fault-a", narrowRuns(t, intra, 44, 1)[0]); err != nil {
		t.Fatal(err)
	}

	statsObj := getObject(t, srv.Handler(), "/v1/stats")
	if got := sortedKeys(statsObj); !reflect.DeepEqual(got, statsKeys) {
		t.Errorf("/v1/stats keys\n got %q\nwant %q", got, statsKeys)
	}
	var latency map[string]json.RawMessage
	if err := json.Unmarshal(statsObj["diagnoseLatency"], &latency); err != nil {
		t.Fatal(err)
	}
	if got := sortedKeys(latency); !reflect.DeepEqual(got, latencyKeys) {
		t.Errorf("diagnoseLatency keys\n got %q\nwant %q", got, latencyKeys)
	}

	// One /v1/profiles response, read raw for the keys and typed for the sums.
	profilesRaw := getObject(t, srv.Handler(), "/v1/profiles")["profiles"]
	var rows []map[string]json.RawMessage
	var typed []ProfileInfo
	if err := json.Unmarshal(profilesRaw, &rows); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(profilesRaw, &typed); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d profile rows, want the intra and the narrow profile", len(rows))
	}
	for i, row := range rows {
		if got := sortedKeys(row); !reflect.DeepEqual(got, profileKeys) {
			t.Errorf("profile row %d (%s) keys\n got %q\nwant %q", i, typed[i].Node, got, profileKeys)
		}
	}

	// Totals against rows.
	st := srv.Stats()
	sigs := 0
	for _, p := range typed {
		sigs += p.Signatures
	}
	if st.Profiles != len(typed) || st.Signatures != sigs {
		t.Errorf("/v1/stats totals %d profiles, %d signatures; /v1/profiles rows give %d profiles, %d signatures",
			st.Profiles, st.Signatures, len(typed), sigs)
	}
	if sigs != 1 || !st.LifecycleEnabled {
		t.Errorf("snapshot not exercised: %d signatures, lifecycle %v", sigs, st.LifecycleEnabled)
	}

}

// TestSignaturesListSortedAcrossContexts: GET /v1/signatures lists every
// profile's signatures once, ordered by (workload, node, problem, tuple)
// whatever order they were labelled in, with the tuples as 0/1 strings.
func TestSignaturesListSortedAcrossContexts(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	want := []SignatureEntry{
		{Problem: "cpu-hog", Workload: "sort", Node: "10.0.0.2", Tuple: "0110"},
		{Problem: "net-drop", Workload: "sort", Node: "10.0.0.2", Tuple: "0011"},
		{Problem: "cpu-hog", Workload: "sort", Node: "10.0.0.3", Tuple: "1001"},
	}
	for _, i := range []int{2, 1, 0} {
		tuple, err := signature.ParseTuple(want[i].Tuple)
		if err != nil {
			t.Fatal(err)
		}
		e := signature.Entry{Tuple: tuple, Problem: want[i].Problem, IP: want[i].Node, Workload: want[i].Workload}
		if !srv.sys.MergeSignature(e) {
			t.Fatalf("label %+v not stored", want[i])
		}
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/signatures", nil))
	var got SignaturesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/signatures: status %d, %v, body %s", rec.Code, err, rec.Body)
	}
	if got.Count != len(want) || !reflect.DeepEqual(got.Signatures, want) {
		t.Errorf("GET /v1/signatures\n got %d %+v\nwant %d %+v", got.Count, got.Signatures, len(want), want)
	}
}

// narrowRuns builds n 40-tick windows of ctx's coupled samples cut to their
// first 12 metrics, the first seeded by seed.
func narrowRuns(t *testing.T, ctx core.Context, seed int64, n int) []*metrics.Trace {
	t.Helper()
	var out []*metrics.Trace
	for i := int64(0); i < int64(n); i++ {
		tr := mustTrace(t, ctx, coupledSamples(stats.NewRNG(seed+i), 40, 8, nil, 0))
		tr.Rows = tr.Rows[:12]
		out = append(out, tr)
	}
	return out
}

// TestDiagnoseWidthMismatchFailsReport: a request carries the collector's 26
// metrics, so diagnosing a context whose set was trained on windows of
// another width is an ordinary failed report — accepted, no verdict, the
// error naming the mismatch, reportsFailed +1 — never a panic or a verdict
// over the wrong rows.
func TestDiagnoseWidthMismatchFailsReport(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := core.Context{Workload: "sort", IP: "10.0.0.2~10.0.0.3#shuffle"}
	if err := srv.sys.TrainInvariants(ctx, narrowRuns(t, ctx, 41, 3)); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats()
	rec := postJSON(t, srv.Handler(), "/v1/diagnose",
		DiagnoseRequest{Workload: ctx.Workload, Node: ctx.IP, Samples: coupledSamples(stats.NewRNG(45), 30, 8, nil, 0), Wait: true})
	var dr DiagnoseResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("POST /v1/diagnose: status %d, %v, body %s", rec.Code, err, rec.Body)
	}
	if dr.Status != StatusFailed || dr.Report == nil || dr.Report.Diagnosis != nil ||
		!strings.Contains(dr.Report.Error, "window over 26 metrics, invariant set dimension 12") {
		t.Fatalf("diagnose on a 12-metric set: %+v, want a failed report naming 26 against 12 metrics", dr)
	}
	after := srv.Stats()
	if after.ReportsFailed != before.ReportsFailed+1 || after.ReportsDone != before.ReportsDone {
		t.Errorf("reportsFailed %d -> %d, reportsDone %d -> %d; want one failed report", before.ReportsFailed, after.ReportsFailed, before.ReportsDone, after.ReportsDone)
	}
}
