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
	"invarnetx/internal/fleet"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// The operator wire contract: bench/ and invarctl decode these keys, so a
// rename or a dropped field is a breaking change however the payload is
// built. A non-federated daemon omits "fleet"; an intra-node profile row
// omits the cross scope keys.
var (
	statsKeys = []string{
		"alerts", "assocCacheEntries", "assocCacheHitRate", "assocCacheHits", "assocCacheMisses",
		"badRequests", "crossEdges", "crossProfiles", "crossQuarantinedEdges", "crossSignatures",
		"detectTasks", "diagnoseLatency", "diagnoseShed",
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
		"alerting", "alerts", "cacheHits", "cacheMisses", "cpiRuns", "generation", "hasModel",
		"ingested", "invariants", "node", "promotions", "quarantinedEdges", "rollbacks",
		"shadowAge", "signatures", "windowLen", "windows", "workload",
	}
	crossProfileKeys = []string{"cross", "nodeA", "nodeB", "stage"}
	peersKeys        = []string{"count", "peers", "self"}
	peerRowKeys      = []string{"addr", "lastSeenSec", "misses", "state"} // lastErr only after a failure
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

// TestStatsAndProfilesWireKeys pins the exact JSON key sets of GET /v1/stats,
// of one GET /v1/profiles row and of a federated daemon's GET /v1/peers, and
// that the first two are views of one profile snapshot: the cross totals on
// /v1/stats are the sums of the cross rows on /v1/profiles.
func TestStatsAndProfilesWireKeys(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Lifecycle.Enabled = true
	srv, _, err := New(Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	intra := core.Context{Workload: "sort", IP: "10.0.0.2"}
	trainContext(t, srv, intra, 31)

	// One cross profile over joint windows of two nodes sharing a latent.
	key := core.NewCrossKey("sort", "10.0.0.2", "10.0.0.3", "shuffle")
	joint := func(seed int64, decouple map[int]bool) *metrics.Trace {
		a := mustTrace(t, intra, coupledSamples(stats.NewRNG(seed), 40, 8, decouple, 0))
		b := mustTrace(t, intra, coupledSamples(stats.NewRNG(seed), 40, 8, nil, 0))
		j, err := metrics.JoinTraces(a, b, core.CrossMetricIdx)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if err := srv.sys.TrainInvariants(key.Context(), []*metrics.Trace{joint(41, nil), joint(42, nil), joint(43, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := srv.sys.BuildSignature(key.Context(), "xlink@10.0.0.3", joint(44, map[int]bool{0: true})); err != nil {
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
		t.Fatalf("%d profile rows, want the intra and the cross profile", len(rows))
	}
	wantCrossRow := append(append([]string(nil), profileKeys...), crossProfileKeys...)
	sort.Strings(wantCrossRow)
	if got := sortedKeys(rows[0]); !reflect.DeepEqual(got, profileKeys) {
		t.Errorf("intra profile row keys\n got %q\nwant %q", got, profileKeys)
	}
	if got := sortedKeys(rows[1]); !reflect.DeepEqual(got, wantCrossRow) {
		t.Errorf("cross profile row keys\n got %q\nwant %q", got, wantCrossRow)
	}

	// Totals against rows.
	st := srv.Stats()
	var cross Stats
	for _, p := range typed {
		if p.Cross {
			cross.CrossProfiles++
			cross.CrossEdges += p.Invariants
			cross.CrossQuarantine += p.QuarantinedEdges
			cross.CrossSignatures += p.Signatures
		}
	}
	if st.Profiles != len(typed) || st.CrossProfiles != cross.CrossProfiles || st.CrossEdges != cross.CrossEdges ||
		st.CrossQuarantine != cross.CrossQuarantine || st.CrossSignatures != cross.CrossSignatures {
		t.Errorf("/v1/stats totals %d profiles, cross %d/%d/%d/%d; /v1/profiles rows give %d profiles, cross %d/%d/%d/%d",
			st.Profiles, st.CrossProfiles, st.CrossEdges, st.CrossQuarantine, st.CrossSignatures,
			len(typed), cross.CrossProfiles, cross.CrossEdges, cross.CrossQuarantine, cross.CrossSignatures)
	}
	if st.CrossProfiles != 1 || st.CrossEdges == 0 || st.CrossSignatures != 1 || !st.LifecycleEnabled {
		t.Errorf("cross layer not exercised: %d profiles, %d edges, %d signatures, lifecycle %v",
			st.CrossProfiles, st.CrossEdges, st.CrossSignatures, st.LifecycleEnabled)
	}

	// Federation adds one block to /v1/stats and the /v1/peers view.
	fed, _, err := New(Config{Core: cfg, Fleet: &fleet.Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}}})
	if err != nil {
		t.Fatal(err)
	}
	wantFedStats := append(append([]string(nil), statsKeys...), "fleet")
	sort.Strings(wantFedStats)
	if got := sortedKeys(getObject(t, fed.Handler(), "/v1/stats")); !reflect.DeepEqual(got, wantFedStats) {
		t.Errorf("federated /v1/stats keys\n got %q\nwant %q", got, wantFedStats)
	}
	peersObj := getObject(t, fed.Handler(), "/v1/peers")
	if got := sortedKeys(peersObj); !reflect.DeepEqual(got, peersKeys) {
		t.Errorf("/v1/peers keys\n got %q\nwant %q", got, peersKeys)
	}
	var peerRows []map[string]json.RawMessage
	if err := json.Unmarshal(peersObj["peers"], &peerRows); err != nil {
		t.Fatal(err)
	}
	if len(peerRows) != 1 {
		t.Fatalf("%d peer rows, want 1", len(peerRows))
	}
	if got := sortedKeys(peerRows[0]); !reflect.DeepEqual(got, peerRowKeys) {
		t.Errorf("peer row keys\n got %q\nwant %q", got, peerRowKeys)
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

// TestCrossContextRefusedAtAdmission: the daemon lists a cross profile its
// store holds but cannot score a window against it — a cross set spans two
// nodes' metrics and a request carries one node's — so diagnose and label
// requests naming one are refused up front instead of taking a stream, a
// queue slot and a report that can only fail.
func TestCrossContextRefusedAtAdmission(t *testing.T) {
	srv, _, err := New(Config{Core: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	intra := core.Context{Workload: "sort", IP: "10.0.0.2"}
	key := core.NewCrossKey("sort", "10.0.0.2", "10.0.0.3", "shuffle")
	var joint []*metrics.Trace
	for seed := int64(41); seed <= 43; seed++ {
		half := mustTrace(t, intra, coupledSamples(stats.NewRNG(seed), 40, 8, nil, 0))
		j, err := metrics.JoinTraces(half, half, core.CrossMetricIdx)
		if err != nil {
			t.Fatal(err)
		}
		joint = append(joint, j)
	}
	if err := srv.sys.TrainInvariants(key.Context(), joint); err != nil {
		t.Fatal(err)
	}
	node := key.Context().IP
	for path, body := range map[string]any{
		"/v1/diagnose":   DiagnoseRequest{Workload: "sort", Node: node, Samples: testSamples(30), Wait: true},
		"/v1/signatures": SignatureRequest{Workload: "sort", Node: node, Problem: "xlink@10.0.0.3", Samples: testSamples(30)},
	} {
		before := srv.Stats()
		rec := postJSON(t, srv.Handler(), path, body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "offline") {
			t.Errorf("POST %s on %s: status %d, body %s; want 400 naming the offline study", path, node, rec.Code, rec.Body)
		}
		after := srv.Stats()
		if after.Streams != before.Streams || after.ReportsFailed != before.ReportsFailed ||
			after.BadRequests != before.BadRequests+1 {
			t.Errorf("POST %s: streams %d -> %d, reportsFailed %d -> %d, badRequests %d -> %d; want only badRequests +1", path,
				before.Streams, after.Streams, before.ReportsFailed, after.ReportsFailed, before.BadRequests, after.BadRequests)
		}
	}
}
