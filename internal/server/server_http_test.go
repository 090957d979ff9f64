package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// trainStreams trains a model, invariants and one labelled signature for the
// first n load-generator streams of cfg, so diagnosis over HTTP has real
// state to work against.
func trainStreams(t *testing.T, sys *core.System, cfg client.LoadConfig, n int) {
	t.Helper()
	rng := stats.NewRNG(7)
	for i := 0; i < n; i++ {
		w, node := cfg.StreamID(i)
		ctx := core.Context{Workload: w, IP: node}
		var runs []*metrics.Trace
		var cpis [][]float64
		for r := 0; r < 6; r++ {
			batch := client.SynthBatch(rng.Fork(int64(i*100+r)), cfg, 100)
			tr, err := server.TraceFromSamples(w, node, batch)
			if err != nil {
				t.Fatal(err)
			}
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatalf("training model for %v: %v", ctx, err)
		}
		if err := sys.TrainInvariants(ctx, runs); err != nil {
			t.Fatalf("training invariants for %v: %v", ctx, err)
		}
		faulty := client.SynthBatch(rng.Fork(int64(i*100+99)), client.LoadConfig{Coupled: 2}, 40)
		tr, err := server.TraceFromSamples(w, node, faulty)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.BuildSignature(ctx, "test-fault", tr); err != nil {
			t.Fatalf("building signature for %v: %v", ctx, err)
		}
	}
}

func newTestServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client, *httptest.Server) {
	t.Helper()
	srv, _, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL, hs.Client()), hs
}

// getProfiles reads GET /v1/profiles, an endpoint the typed client has no
// product caller for.
func getProfiles(t *testing.T, hs *httptest.Server) *server.ProfilesResponse {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.ProfilesResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/profiles: status %d, %v", resp.StatusCode, err)
	}
	return &out
}

// getReport reads GET /v1/reports/{id}, an endpoint the typed client has no
// call for; ok is false on a 404.
func getReport(t *testing.T, hs *httptest.Server, id string) (r *server.Report, ok bool) {
	t.Helper()
	resp, err := hs.Client().Get(hs.URL + "/v1/reports/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false
	}
	var out server.Report
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/reports/%s: status %d, %v", id, resp.StatusCode, err)
	}
	return &out, true
}

// loadReportIDs are the IDs a fresh server can have given rep's diagnose
// requests: it numbers reports from r-00000001, and a shed request spent its
// number on a report it then dropped.
func loadReportIDs(rep *client.LoadReport) []string {
	ids := make([]string, rep.Diagnoses+rep.DiagnoseShed)
	for i := range ids {
		ids[i] = fmt.Sprintf("r-%08d", i+1)
	}
	return ids
}

// postSignature labels a signature through POST /v1/signatures, the other
// endpoint the typed client has no product caller for, and reports whether
// the daemon acknowledged it.
func postSignature(hs *httptest.Server, req server.SignatureRequest) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := hs.Client().Post(hs.URL+"/v1/signatures", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST /v1/signatures: status %d", resp.StatusCode)
	}
	return nil
}

// TestConcurrentIngestStreams is the serving acceptance test: 8 concurrent
// ingest streams under -race, queue depth bounded throughout, no transport
// errors, and diagnosis reports for accepted work retrievable.
func TestConcurrentIngestStreams(t *testing.T) {
	cfg := server.Config{Core: core.DefaultConfig(), Workers: 4, QueueCap: 16, WindowCap: 64}
	lcfg := client.LoadConfig{Streams: 8, BatchLen: 5, Batches: 30, DiagnoseEvery: 10}
	srv, c, hs := newTestServer(t, cfg)
	trainStreams(t, srv.System(), lcfg, lcfg.Streams)

	// A stats poller races the load, watching the queue bound live.
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Each stream's queue holds QueueCap tasks besides the one it
			// runs, and at most Workers run at once.
			st, err := c.Stats(context.Background())
			if err == nil {
				if max := int64(cfg.QueueCap*lcfg.Streams + min(cfg.Workers, lcfg.Streams)); st.QueueDepth > max {
					t.Errorf("queue depth %d exceeds bound %d", st.QueueDepth, max)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	rep := c.RunLoad(context.Background(), lcfg)
	close(stop)
	pollWG.Wait()

	if rep.Errors > 0 {
		t.Fatalf("load saw %d transport errors", rep.Errors)
	}
	if rep.Accepted+rep.Shed != rep.Sent {
		t.Fatalf("sent=%d but accepted=%d + shed=%d", rep.Sent, rep.Accepted, rep.Shed)
	}
	if rep.Accepted == 0 {
		t.Fatal("no batches accepted")
	}

	// Every issued report resolves (the queues drain) and is retrievable.
	deadline := time.Now().Add(30 * time.Second)
	var found int64
	for _, id := range loadReportIDs(rep) {
		for {
			r, ok := getReport(t, hs, id)
			if !ok {
				break
			}
			if r.Status != server.StatusPending {
				found++
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("report %s still pending", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if found != rep.Diagnoses {
		t.Errorf("%d reports retrievable, want one per issued diagnosis (%d)", found, rep.Diagnoses)
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.IngestBatches < rep.Accepted {
		t.Errorf("server counted %d accepted batches, client confirmed %d", st.IngestBatches, rep.Accepted)
	}
	if st.Streams != lcfg.Streams {
		t.Errorf("streams = %d, want %d", st.Streams, lcfg.Streams)
	}

	// Windows stayed bounded.
	profs := getProfiles(t, hs)
	for _, p := range profs.Profiles {
		if p.WindowLen > cfg.WindowCap {
			t.Errorf("%s@%s window %d exceeds cap %d", p.Workload, p.Node, p.WindowLen, cfg.WindowCap)
		}
	}
	// Profiles listing is sorted by (workload, node).
	for i := 1; i < len(profs.Profiles); i++ {
		a, b := profs.Profiles[i-1], profs.Profiles[i]
		if a.Workload > b.Workload || (a.Workload == b.Workload && a.Node > b.Node) {
			t.Errorf("profiles unsorted at %d: %s@%s before %s@%s", i, a.Workload, a.Node, b.Workload, b.Node)
		}
	}
}

// TestGracefulShutdownDrainsAcceptedWork: everything the server accepted
// before Shutdown — ingest batches and diagnose requests — completes: every
// report leaves pending, the streams hold every accepted sample, and new
// work is refused while draining.
func TestGracefulShutdownDrainsAcceptedWork(t *testing.T) {
	cfg := server.Config{Core: core.DefaultConfig(), Workers: 2, QueueCap: 64, WindowCap: 256}
	lcfg := client.LoadConfig{Streams: 4, BatchLen: 8, Batches: 6, DiagnoseEvery: 3}
	srv, c, hs := newTestServer(t, cfg)
	trainStreams(t, srv.System(), lcfg, lcfg.Streams)

	rep := c.RunLoad(context.Background(), lcfg)
	if rep.Errors > 0 || rep.Shed > 0 {
		t.Fatalf("load not fully accepted: %+v", rep)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Draining refuses new mutating work with 503.
	if _, err := c.Ingest(context.Background(), "wordcount", "10.9.9.9", client.SynthBatch(stats.NewRNG(1), lcfg, 1)); err == nil {
		t.Error("ingest after shutdown succeeded, want 503")
	} else if ae, ok := err.(*client.APIError); !ok || ae.StatusCode != 503 {
		t.Errorf("ingest after shutdown: %v, want 503", err)
	}

	// Every accepted diagnose completed and is retrievable.
	var found int64
	for _, id := range loadReportIDs(rep) {
		r, ok := getReport(t, hs, id)
		if !ok {
			continue
		}
		found++
		if r.Status == server.StatusPending {
			t.Errorf("report %s still pending after drain", id)
		}
	}
	if found != rep.Diagnoses {
		t.Errorf("%d reports retrievable after shutdown, want one per accepted diagnose (%d)", found, rep.Diagnoses)
	}

	// Every accepted sample landed in its stream's window.
	profs := getProfiles(t, hs)
	perStream := int64(lcfg.BatchLen * lcfg.Batches)
	var total int64
	for _, p := range profs.Profiles {
		total += p.Ingested
		if p.Ingested != perStream {
			t.Errorf("%s@%s ingested %d, want %d", p.Workload, p.Node, p.Ingested, perStream)
		}
	}
	if total != rep.Samples {
		t.Errorf("streams ingested %d samples, client confirmed %d", total, rep.Samples)
	}

	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ReportsPending != 0 {
		t.Errorf("%d reports pending after drain", st.ReportsPending)
	}
}

// TestZeroCoreKeepsContextsApart: a daemon built with a zero core.Config
// scopes by operation context, the only behaviour a deployment wants — two
// trained contexts are two profiles, and a fault labelled on node A names no
// cause when node B is sent the same window.
func TestZeroCoreKeepsContextsApart(t *testing.T) {
	srv, c, hs := newTestServer(t, server.Config{StoreDir: t.TempDir()})
	a := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	b := core.Context{Workload: "wordcount", IP: "10.0.0.3"}
	rng := stats.NewRNG(17)
	for i, ctx := range []core.Context{a, b} {
		var runs []*metrics.Trace
		var cpis [][]float64
		for r := 0; r < 6; r++ {
			tr, err := server.TraceFromSamples(ctx.Workload, ctx.IP, client.SynthBatch(rng.Fork(int64(10*i+r)), client.LoadConfig{}, 100))
			if err != nil {
				t.Fatal(err)
			}
			runs, cpis = append(runs, tr), append(cpis, tr.CPI)
		}
		if err := srv.System().TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatalf("training model for %v: %v", ctx, err)
		}
		if err := srv.System().TrainInvariants(ctx, runs); err != nil {
			t.Fatalf("training invariants for %v: %v", ctx, err)
		}
	}
	fault := client.SynthBatch(rng.Fork(99), client.LoadConfig{Coupled: 2}, 40)
	win, err := server.TraceFromSamples(a.Workload, a.IP, fault)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.System().BuildSignature(a, "fault-a", win); err != nil {
		t.Fatal(err)
	}

	if got := getProfiles(t, hs); got.Count != 2 || len(got.Profiles) != 2 {
		t.Errorf("GET /v1/profiles lists %d rows (%+v), want one per trained context", len(got.Profiles), got.Profiles)
	}
	resp, err := c.Diagnose(context.Background(), b.Workload, b.IP, fault, true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report == nil || resp.Report.Status != server.StatusDone || resp.Report.Diagnosis == nil {
		t.Fatalf("diagnose on %v: %+v, want a completed report", b, resp.Report)
	}
	if causes := resp.Report.Diagnosis.Causes; len(causes) != 0 {
		t.Errorf("node %v was diagnosed with node %v's signature: %v", b, a, causes)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestRestartRestoresSignatures kills the daemon mid-load (shutdown while
// traffic and signature labelling are in flight) and asserts a restart from
// the same store dir restores every signature shard the first instance
// acknowledged.
func TestRestartRestoresSignatures(t *testing.T) {
	dir := t.TempDir()
	store := filepath.Join(dir, "models")
	cfg := server.Config{Core: core.DefaultConfig(), StoreDir: store, Workers: 4, QueueCap: 64}
	lcfg := client.LoadConfig{Streams: 6, BatchLen: 5, Batches: 0} // run until cancelled
	srv, c, hs := newTestServer(t, cfg)
	trainStreams(t, srv.System(), lcfg, lcfg.Streams)

	// Load runs in the background while signatures are labelled over the
	// wire; shutdown then lands mid-traffic.
	loadCtx, stopLoad := context.WithCancel(context.Background())
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	var loadRep *client.LoadReport
	go func() {
		defer loadWG.Done()
		loadRep = c.RunLoad(loadCtx, lcfg)
	}()

	// Label one extra problem per stream; every acknowledged POST must
	// survive the restart.
	rng := stats.NewRNG(99)
	type labelled struct{ workload, node, problem string }
	var acked []labelled
	for i := 0; i < lcfg.Streams; i++ {
		w, node := lcfg.StreamID(i)
		samples := client.SynthBatch(rng.Fork(int64(i)), client.LoadConfig{Coupled: 3}, 40)
		if err := postSignature(hs, server.SignatureRequest{Workload: w, Node: node, Problem: "disk-hog", Samples: samples}); err != nil {
			t.Fatalf("labelling signature for %s@%s: %v", w, node, err)
		}
		acked = append(acked, labelled{w, node, "disk-hog"})
	}

	// Kill mid-load: close the listener (in-flight requests abort), then
	// drain and persist.
	hs.CloseClientConnections()
	hs.Close()
	stopLoad()
	loadWG.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if loadRep == nil {
		t.Fatal("load report missing")
	}

	wantSigs := srv.System().SignatureCount()
	wantProfiles := len(srv.System().Profiles())

	// Restart from the same store.
	srv2, loadReport, err := server.New(server.Config{Core: core.DefaultConfig(), StoreDir: store})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	if loadReport == nil {
		t.Fatal("restart returned no load report")
	}
	if loadReport.Partial() {
		t.Fatalf("restart skipped files: %s", loadReport)
	}
	if got := srv2.System().SignatureCount(); got != wantSigs {
		t.Errorf("restart restored %d signatures, want %d", got, wantSigs)
	}
	if got := len(srv2.System().Profiles()); got != wantProfiles {
		t.Errorf("restart restored %d profiles, want %d", got, wantProfiles)
	}

	// Every signature acknowledged over the wire is present by content.
	var entries []signature.Entry
	for _, p := range srv2.System().Profiles() {
		entries = append(entries, p.Signatures()...)
	}
	for _, l := range acked {
		found := false
		for _, e := range entries {
			if e.Problem == l.problem && e.Workload == l.workload && e.IP == l.node {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("signature %s for %s@%s lost across restart", l.problem, l.workload, l.node)
		}
	}

	// The operator statistics count what the restore stored.
	if got := srv2.Stats().Signatures; got != wantSigs {
		t.Errorf("restart reports %d signatures in /v1/stats, want %d", got, wantSigs)
	}
}
