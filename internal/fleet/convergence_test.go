package fleet_test

// Deterministic N-peer convergence harness: three full invarnetd serving
// stacks on loopback listeners, with the fleet's background loops left
// unstarted so every anti-entropy exchange is an explicit SyncRound call.
// That turns "converges eventually" into "converges in a bounded number of
// rounds" — an assertion instead of a sleep.

import (
	"context"
	"fmt"
	"net"
	"net/http"
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

// bootTestFleet starts n federated serving stacks on loopback. The fleet
// loops are NOT started — replication advances only when the test calls
// SyncRound.
func bootTestFleet(t *testing.T, n int) []*testFleet {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	peers := make([]*testFleet, n)
	for i := range peers {
		others := make([]string, 0, n-1)
		for j, a := range addrs {
			if j != i {
				others = append(others, a)
			}
		}
		srv, _, err := server.New(server.Config{
			Core:     core.DefaultConfig(),
			Workers:  2,
			QueueCap: 64,
			Fleet: &fleet.Config{
				Self:         addrs[i],
				Peers:        others,
				SuspectAfter: 2,
				DeadAfter:    5,
			},
		})
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go hs.Serve(lns[i])
		peers[i] = &testFleet{
			addr: addrs[i],
			srv:  srv,
			hs:   hs,
			cli:  client.New("http://"+addrs[i], nil),
		}
	}
	t.Cleanup(func() {
		for _, p := range peers {
			p.hs.Close()
		}
	})
	return peers
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
// cross-peer diagnosis answered from the gossip-built local replica, and a
// killed peer declared dead after exactly DeadAfter missed rounds with no
// accepted signature lost and each survivor still answering, from its own
// ingested window, for a fault only the dead peer ever saw labelled.
func TestFleetConvergesInBoundedRounds(t *testing.T) {
	const workload, node = "wordcount", "10.0.0.2"
	bg := context.Background()
	peers := bootTestFleet(t, convergencePeers)
	for _, p := range peers {
		trainContext(t, p.srv.System(), workload, node)
	}

	// A distinct fault per peer: breaking a different number of the coupled
	// metrics yields nested-but-distinct violation tuples, so the fleet-wide
	// union is exactly one signature per peer.
	faultBatches := make([][]server.Sample, convergencePeers)
	for i, p := range peers {
		faultBatches[i] = client.SynthBatch(stats.NewRNG(int64(100+i)),
			client.LoadConfig{Coupled: 2 + 2*i}, 40)
		problem := fmt.Sprintf("fault-%d", i)
		if err := p.cli.AddSignature(bg, workload, node, problem, faultBatches[i]); err != nil {
			t.Fatalf("labelling %s: %v", problem, err)
		}
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
		if err := peers[i].cli.AddSignature(bg, workload, node, "shared-fault", dupBatch); err != nil {
			t.Fatalf("labelling shared-fault on peer %d: %v", i, err)
		}
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
	// connections both). Each failed exchange counts one miss, so DeadAfter
	// survivor rounds are the deterministic bound for the dead declaration.
	peers[2].hs.Close()
	const suspectAfter, deadAfter = 2, 5 // bootTestFleet's thresholds
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
}

// TestFleetLateJoinerCatchesUp covers the asymmetric case: a record born
// before a peer ever exchanged state still reaches it, because the version
// vector in the sync request exposes exactly what the joiner is missing.
func TestFleetLateJoinerCatchesUp(t *testing.T) {
	const workload, node = "sortjob", "10.0.0.9"
	bg := context.Background()
	peers := bootTestFleet(t, 2)
	for _, p := range peers {
		trainContext(t, p.srv.System(), workload, node)
	}
	batch := client.SynthBatch(stats.NewRNG(900), client.LoadConfig{Coupled: 3}, 40)
	if err := peers[0].cli.AddSignature(bg, workload, node, "early-fault", batch); err != nil {
		t.Fatal(err)
	}
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
