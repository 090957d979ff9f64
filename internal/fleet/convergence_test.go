package fleet_test

// N-peer convergence harness: full invarnetd serving stacks on loopback
// listeners. Most tests leave the fleet's background loop unstarted so every
// anti-entropy exchange is an explicit SyncRound call. That turns "converges
// eventually" into "converges in a bounded number of rounds" — an assertion
// instead of a sleep. One test starts the loops and holds them to a
// wall-clock budget instead.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/fleet"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/stats"
)

const convergencePeers = 3

// testFleet is one booted peer: the serving stack, its HTTP front end, and a
// typed client aimed at it.
type testFleet struct {
	addr string
	srv  *server.Server
	hs   *http.Server
	cli  *client.Client
}

// bootTestFleet starts n federated serving stacks on loopback, each
// bootstrapped with all the others, at the given sync interval (0: the
// default). The fleet loops are NOT started — replication advances only when
// the test calls SyncRound or StartFleet.
func bootTestFleet(t *testing.T, n int, syncInterval time.Duration) []*testFleet {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		lns[i] = listen(t, "127.0.0.1:0")
		addrs[i] = lns[i].Addr().String()
	}
	peers := make([]*testFleet, n)
	for i := range peers {
		others := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				others = append(others, a)
			}
		}
		peers[i] = servePeer(t, lns[i], others, "", syncInterval)
	}
	return peers
}

// listen opens a loopback listener on addr — port 0 for a fresh one, or the
// address of a peer that went down, to restart it where the fleet knows it.
func listen(t *testing.T, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// servePeer boots one federated serving stack on ln, advertised under ln's
// address, restoring StoreDir dir when it is set.
func servePeer(t *testing.T, ln net.Listener, peers []string, dir string, syncInterval time.Duration) *testFleet {
	t.Helper()
	addr := ln.Addr().String()
	srv, _, err := server.New(server.Config{
		Core:     core.DefaultConfig(),
		StoreDir: dir,
		Workers:  2,
		QueueCap: 64,
		Fleet:    &fleet.Config{Self: addr, Peers: peers, SyncInterval: syncInterval},
	})
	if err != nil {
		t.Fatalf("peer %s: %v", addr, err)
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return &testFleet{addr: addr, srv: srv, hs: hs, cli: client.New("http://"+addr, nil)}
}

// trainContext trains one (workload, node) operation context from the
// generator's coupled synthetic telemetry.
func trainContext(t *testing.T, sys *core.System, workload, node string) {
	t.Helper()
	rng := stats.NewRNG(7)
	cctx := core.Context{Workload: workload, IP: node}
	var runs []*metrics.Trace
	var cpis [][]float64
	for r := 0; r < 6; r++ {
		batch := client.SynthBatch(rng.Fork(int64(r)), client.LoadConfig{}, 100)
		tr, err := server.TraceFromSamples(workload, node, batch)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := sys.TrainPerformanceModel(cctx, cpis); err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainInvariants(cctx, runs); err != nil {
		t.Fatal(err)
	}
}

// label labels problem on p from samples through POST /v1/signatures and
// fails the test unless the daemon stored it or already held it.
func label(t *testing.T, p *testFleet, workload, node, problem string, samples []server.Sample) {
	t.Helper()
	body, err := json.Marshal(server.SignatureRequest{Workload: workload, Node: node, Problem: problem, Samples: samples})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+p.addr+"/v1/signatures", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("labelling %s on %s: %v", problem, p.addr, err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("labelling %s on %s: HTTP %d", problem, p.addr, resp.StatusCode)
	}
}

// signatureCounts reads every peer's signature-base size over the API.
func signatureCounts(t *testing.T, peers []*testFleet) []int {
	t.Helper()
	counts := make([]int, len(peers))
	for i, p := range peers {
		sigs, err := p.cli.Signatures(context.Background())
		if err != nil {
			t.Fatalf("peer %d signatures: %v", i, err)
		}
		counts[i] = sigs.Count
	}
	return counts
}

// allHave reports whether every count reached want.
func allHave(counts []int, want int) bool {
	for _, c := range counts {
		if c < want {
			return false
		}
	}
	return true
}

// TestFleetConvergesInBoundedRounds is the end-to-end federation contract:
// a distinct fault labelled on each of three peers, the union converging to
// every peer within a bounded number of explicit anti-entropy rounds, a
// cross-peer diagnosis answered from the gossip-built local replica, a
// killed peer declared dead after exactly five missed rounds with no
// accepted signature lost and each survivor still answering, from its own
// ingested window, for a fault only the dead peer ever saw labelled, and a
// daemon restarted on the dead peer's address marked alive and handed the
// fleet's signatures by one survivor round.
func TestFleetConvergesInBoundedRounds(t *testing.T) {
	const workload, node = "wordcount", "10.0.0.2"
	bg := context.Background()
	peers := bootTestFleet(t, convergencePeers, 0)
	for _, p := range peers {
		trainContext(t, p.srv.System(), workload, node)
	}
	// Liveness rides the sync round: there is no probe endpoint.
	resp, err := http.Post("http://"+peers[0].addr+"/v1/fleet/ping", "application/json", bytes.NewReader([]byte(`{"from":"x:1"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /v1/fleet/ping answered %d, want 404", resp.StatusCode)
	}

	// A distinct fault per peer: breaking a different number of the coupled
	// metrics yields nested-but-distinct violation tuples, so the fleet-wide
	// union is exactly one signature per peer.
	faultBatches := make([][]server.Sample, convergencePeers)
	for i, p := range peers {
		faultBatches[i] = client.SynthBatch(stats.NewRNG(int64(100+i)),
			client.LoadConfig{Coupled: 2 + 2*i}, 40)
		label(t, p, workload, node, fmt.Sprintf("fault-%d", i), faultBatches[i])
	}
	for i, c := range signatureCounts(t, peers) {
		if c != 1 {
			t.Fatalf("peer %d holds %d signatures before any sync, want 1", i, c)
		}
	}

	// With sequential push-pull, one round on peer 0 plus one on peer 1
	// already carries every record everywhere; two full passes over the
	// fleet is a generous deterministic bound.
	const maxPasses = 2
	passes := 0
	for ; passes < maxPasses; passes++ {
		for _, p := range peers {
			p.srv.Fleet().SyncRound(bg)
		}
		if allHave(signatureCounts(t, peers), convergencePeers) {
			break
		}
	}
	counts := signatureCounts(t, peers)
	if !allHave(counts, convergencePeers) {
		t.Fatalf("union did not converge within %d passes: counts %v", maxPasses, counts)
	}
	for i, c := range counts {
		if c != convergencePeers {
			t.Errorf("peer %d holds %d signatures, want exactly %d (content dedup leaked)",
				i, c, convergencePeers)
		}
	}
	t.Logf("converged in %d full pass(es)", passes+1)

	// Cross-peer recognition: peer 2 never saw fault-0 labelled; its local
	// gossip-built replica must still name it.
	diag, err := peers[2].cli.Diagnose(bg, workload, node, faultBatches[0], true)
	if err != nil {
		t.Fatalf("cross-peer diagnose: %v", err)
	}
	if diag.Report == nil || diag.Report.Diagnosis == nil {
		t.Fatalf("cross-peer diagnose returned no diagnosis (status %s)", diag.Status)
	}
	if rc := diag.Report.Diagnosis.RootCause; rc != "fault-0" {
		t.Errorf("peer 2 diagnosed %q, want fault-0 (labelled on peer 0)", rc)
	}

	// Labelling the same fault on two peers at once must not double the
	// fleet: each origin logs its own record, but content dedup keyed on
	// (context, fingerprint) collapses them on every peer.
	dupBatch := client.SynthBatch(stats.NewRNG(400), client.LoadConfig{Coupled: 7}, 40)
	for i := 0; i < 2; i++ {
		label(t, peers[i], workload, node, "shared-fault", dupBatch)
	}
	for _, p := range peers {
		p.srv.Fleet().SyncRound(bg)
	}
	wantAfterDup := convergencePeers + 1
	for i, c := range signatureCounts(t, peers) {
		if c != wantAfterDup {
			t.Errorf("peer %d holds %d signatures after concurrent labels, want %d",
				i, c, wantAfterDup)
		}
	}

	// An idle round must advance the convergence signal: nothing moved, so
	// the rounds-since-change distance grows.
	before := peers[0].srv.Fleet().Stats()
	peers[0].srv.Fleet().SyncRound(bg)
	after := peers[0].srv.Fleet().Stats()
	if after.RoundsSinceChange <= before.RoundsSinceChange {
		t.Errorf("idle round did not grow roundsSinceChange: %d -> %d",
			before.RoundsSinceChange, after.RoundsSinceChange)
	}
	if after.RecordsShipped == 0 && after.RecordsApplied == 0 {
		t.Error("converged fleet reports no records shipped or applied")
	}

	// Kill peer 2: hard-close its HTTP server (listener and pooled
	// connections both). Each failed exchange counts one miss, so five
	// survivor rounds are the deterministic bound for the dead declaration.
	peers[2].hs.Close()
	const suspectAfter, deadAfter = 2, 5 // the fleet's liveness thresholds
	for r := 1; r <= deadAfter; r++ {
		peers[0].srv.Fleet().SyncRound(bg)
		peers[1].srv.Fleet().SyncRound(bg)
		want := "alive"
		switch {
		case r >= deadAfter:
			want = "dead"
		case r >= suspectAfter:
			want = "suspect"
		}
		for i := 0; i < 2; i++ {
			for _, pi := range peers[i].srv.Fleet().Peers() {
				if pi.Addr == peers[2].addr && pi.State != want {
					t.Errorf("survivor %d sees the killed peer as %q after %d missed rounds, want %s",
						i, pi.State, r, want)
				}
			}
		}
	}
	// No accepted signature is lost with the peer.
	for i := 0; i < 2; i++ {
		sigs, err := peers[i].cli.Signatures(bg)
		if err != nil {
			t.Fatal(err)
		}
		if sigs.Count != wantAfterDup {
			t.Errorf("survivor %d holds %d signatures after the kill, want %d",
				i, sigs.Count, wantAfterDup)
		}
	}
	// The daemon that is asked answers: each survivor ingests the window of
	// the fault labelled on the dead peer into its own stream and diagnoses
	// that window (no samples in the request) from its own model and replica.
	for i := 0; i < 2; i++ {
		if _, err := peers[i].cli.Ingest(bg, workload, node, faultBatches[2]); err != nil {
			t.Fatalf("survivor %d ingest: %v", i, err)
		}
		diag, err := peers[i].cli.Diagnose(bg, workload, node, nil, true)
		if err != nil {
			t.Fatalf("survivor %d diagnosing its stream window: %v", i, err)
		}
		if diag.Report == nil || diag.Report.Diagnosis == nil {
			t.Fatalf("survivor %d returned no diagnosis of its stream window (status %s, report %+v)",
				i, diag.Status, diag.Report)
		}
		if rc := diag.Report.Diagnosis.RootCause; rc != "fault-2" {
			t.Errorf("survivor %d diagnosed its window as %q, want fault-2 (labelled on the dead peer)", i, rc)
		}
	}

	// Resurrection: a daemon restarted on the dead peer's address, its state
	// lost, is still in every survivor round (a dead bootstrap peer is probed
	// each round). One round of survivor 0 marks it alive and pushes it the
	// whole signature base.
	revived := servePeer(t, listen(t, peers[2].addr), []string{peers[0].addr, peers[1].addr}, "", 0)
	peers[0].srv.Fleet().SyncRound(bg)
	for _, pi := range peers[0].srv.Fleet().Peers() {
		if pi.Addr == revived.addr && pi.State != "alive" {
			t.Errorf("survivor 0 sees the restarted peer as %q after one round, want alive", pi.State)
		}
	}
	if got := signatureCounts(t, []*testFleet{revived})[0]; got != wantAfterDup {
		t.Errorf("restarted peer holds %d signatures after one survivor round, want %d", got, wantAfterDup)
	}
}

// TestFleetLoopsConvergeAndDetectDeath runs the same story on the real
// loops: three peers started at a 20 ms sync interval converge the union of
// their labels, and both survivors declare a hard-killed peer dead, within a
// wall-clock budget and with no signature lost.
func TestFleetLoopsConvergeAndDetectDeath(t *testing.T) {
	const workload, node = "wordcount", "10.0.0.2"
	const budget = 10 * time.Second
	bg := context.Background()
	peers := bootTestFleet(t, convergencePeers, 20*time.Millisecond)
	for _, p := range peers {
		trainContext(t, p.srv.System(), workload, node)
	}
	start := time.Now()
	for _, p := range peers {
		p.srv.StartFleet()
	}
	stop := func(p *testFleet) {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		defer cancel()
		p.srv.Fleet().Stop(ctx)
	}
	t.Cleanup(func() {
		stop(peers[0])
		stop(peers[1])
	})
	for i, p := range peers {
		batch := client.SynthBatch(stats.NewRNG(int64(100+i)), client.LoadConfig{Coupled: 2 + 2*i}, 40)
		label(t, p, workload, node, fmt.Sprintf("fault-%d", i), batch)
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for !done() {
			if time.Since(start) > budget {
				t.Fatalf("%s not reached within %v", what, budget)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitFor("convergence", func() bool { return allHave(signatureCounts(t, peers), convergencePeers) })
	converged := time.Since(start)

	// Kill peer 2: stop its loop (no outbound exchange keeps it passively
	// alive), then hard-close its server, listener and live connections both.
	stop(peers[2])
	peers[2].hs.Close()
	// Each survivor runs its own failure detector; read both views the way
	// an operator does, over GET /v1/peers.
	seesDead := func(i int) bool {
		view, err := peers[i].cli.Peers(bg)
		if err != nil {
			t.Fatalf("survivor %d peers: %v", i, err)
		}
		for _, pi := range view.Peers {
			if pi.Addr == peers[2].addr {
				return pi.State == "dead"
			}
		}
		t.Fatalf("survivor %d lost %s from its peer set", i, peers[2].addr)
		return false
	}
	waitFor("both survivors seeing the killed peer dead", func() bool { return seesDead(0) && seesDead(1) })
	t.Logf("converged after %v, killed peer dead on both survivors after %v", converged, time.Since(start))
	for i, c := range signatureCounts(t, peers[:2]) {
		if c != convergencePeers {
			t.Errorf("survivor %d holds %d signatures after the kill, want %d", i, c, convergencePeers)
		}
	}
}

// TestFleetDrainPersistsAndRebootResumes: a peer with a StoreDir labels a
// fault, syncs and drains, and a reboot on the same address resumes from the
// persisted state — same vector, same next sequence, and a first round
// against an unchanged peer that moves no record either way.
func TestFleetDrainPersistsAndRebootResumes(t *testing.T) {
	const workload, node = "sortjob", "10.0.0.7"
	bg := context.Background()
	lnA, lnB := listen(t, "127.0.0.1:0"), listen(t, "127.0.0.1:0")
	dir := t.TempDir()
	a := servePeer(t, lnA, []string{lnB.Addr().String()}, dir, 0)
	b := servePeer(t, lnB, []string{a.addr}, "", 0)
	trainContext(t, a.srv.System(), workload, node)
	labelCoupled := func(p *testFleet, problem string, coupled int) {
		t.Helper()
		label(t, p, workload, node, problem, client.SynthBatch(stats.NewRNG(int64(coupled)), client.LoadConfig{Coupled: coupled}, 40))
	}
	labelCoupled(a, "drained-fault", 3)
	a.srv.Fleet().SyncRound(bg)
	if got := signatureCounts(t, []*testFleet{b})[0]; got != 1 {
		t.Fatalf("peer b holds %d signatures after a's round, want 1", got)
	}

	// Drain as the daemon does: listener first, then Shutdown (final flush,
	// then the fleet state and the profiles persist).
	a.hs.Close()
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	if err := a.srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet-state.xml")); err != nil {
		t.Fatalf("drain did not persist the fleet state: %v", err)
	}
	vector, next := a.srv.Fleet().Store().Vector(), a.srv.Fleet().Store().NextSeq()
	if next != 2 {
		t.Fatalf("setup: next sequence %d after one label, want 2", next)
	}

	a2 := servePeer(t, listen(t, a.addr), []string{b.addr}, dir, 0)
	store := a2.srv.Fleet().Store()
	if got := store.Vector(); !reflect.DeepEqual(got, vector) {
		t.Errorf("rebooted vector %v, want %v", got, vector)
	}
	if got := store.NextSeq(); got != next {
		t.Errorf("rebooted next sequence %d, want %d", got, next)
	}
	bBefore := b.srv.Fleet().Stats()
	a2.srv.Fleet().SyncRound(bg)
	st, bAfter := a2.srv.Fleet().Stats(), b.srv.Fleet().Stats()
	if st.SyncFailures != 0 || st.RecordsShipped != 0 || st.RecordsApplied != 0 || st.RecordsDuplicate != 0 {
		t.Errorf("first round after reboot: %d failures, shipped %d, applied %d, duplicate %d; want all 0",
			st.SyncFailures, st.RecordsShipped, st.RecordsApplied, st.RecordsDuplicate)
	}
	if bAfter.RecordsShipped != bBefore.RecordsShipped || bAfter.RecordsApplied != bBefore.RecordsApplied {
		t.Errorf("unchanged peer shipped %d and applied %d records to the rebooted one, want 0 and 0",
			bAfter.RecordsShipped-bBefore.RecordsShipped, bAfter.RecordsApplied-bBefore.RecordsApplied)
	}
	labelCoupled(a2, "after-reboot", 6)
	if got := store.Vector()[a.addr]; got != next {
		t.Errorf("first label after reboot stamped seq %d, want %d", got, next)
	}
}

// TestFleetLateJoinerCatchesUp covers the asymmetric case: a record born
// before a peer ever exchanged state still reaches it, because the version
// vector in the sync request exposes exactly what the joiner is missing.
func TestFleetLateJoinerCatchesUp(t *testing.T) {
	const workload, node = "sortjob", "10.0.0.9"
	bg := context.Background()
	peers := bootTestFleet(t, 2, 0)
	for _, p := range peers {
		trainContext(t, p.srv.System(), workload, node)
	}
	batch := client.SynthBatch(stats.NewRNG(900), client.LoadConfig{Coupled: 3}, 40)
	label(t, peers[0], workload, node, "early-fault", batch)
	// The joiner initiates: its sync request carries an empty vector, so the
	// origin's response ships the backlog in the very first exchange.
	peers[1].srv.Fleet().SyncRound(bg)
	sigs, err := peers[1].cli.Signatures(bg)
	if err != nil {
		t.Fatal(err)
	}
	if sigs.Count != 1 {
		t.Fatalf("late joiner holds %d signatures after one round, want 1", sigs.Count)
	}
	diag, err := peers[1].cli.Diagnose(bg, workload, node, batch, true)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Report == nil || diag.Report.Diagnosis == nil ||
		diag.Report.Diagnosis.RootCause != "early-fault" {
		t.Fatalf("late joiner did not recognise the replicated fault: %+v", diag.Report)
	}
}
