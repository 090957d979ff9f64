package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"invarnetx/internal/core"
	"invarnetx/internal/fleet"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/server/client"
	"invarnetx/internal/stats"
)

// fleetSmokePeers is the federation self-test's fleet size: three daemons is
// the smallest fleet where gossip transitivity matters (a record can reach a
// peer that never talked to its origin) and where killing one leaves a fleet.
const fleetSmokePeers = 3

// runFleetSmoke boots a 3-peer fleet on loopback, trains one shared context
// everywhere, labels a distinct fault on each peer, and asserts that gossip
// converges the union to every peer (bounded wall-clock), that a peer
// recognises a fault it never saw labelled (diagnosis from the local
// replica), and that killing one peer is detected by both survivors without
// losing any accepted signature. Metrics — peer counts and convergence
// rounds — go to the log so `make fleet-smoke` output shows replication at
// work.
func runFleetSmoke(cfg server.Config) error {
	const workload, node = "wordcount", "10.0.0.2"

	// Listeners first: the advertised addresses must exist before the server
	// configs that reference each other can be written down.
	lns := make([]net.Listener, fleetSmokePeers)
	addrs := make([]string, fleetSmokePeers)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}

	srvs := make([]*server.Server, fleetSmokePeers)
	hss := make([]*http.Server, fleetSmokePeers)
	clients := make([]*client.Client, fleetSmokePeers)
	dirs := make([]string, fleetSmokePeers)
	for i := range srvs {
		dir, err := os.MkdirTemp("", fmt.Sprintf("invarnetd-fleet-%d-", i))
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		dirs[i] = dir

		peers := make([]string, 0, fleetSmokePeers-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		pcfg := cfg
		pcfg.StoreDir = dir
		pcfg.Fleet = &fleet.Config{
			Self:  addrs[i],
			Peers: peers,
			// Fast cadence: the smoke must converge and detect death in
			// seconds, not the production-paced default minutes.
			Heartbeat:    50 * time.Millisecond,
			SyncInterval: 100 * time.Millisecond,
		}
		srv, _, err := server.New(pcfg)
		if err != nil {
			return fmt.Errorf("peer %d: %w", i, err)
		}
		srvs[i] = srv
		clients[i] = client.New("http://"+addrs[i], nil)

		if err := trainFleetContext(srv.System(), workload, node); err != nil {
			return fmt.Errorf("peer %d training: %w", i, err)
		}
		hss[i] = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
		go hss[i].Serve(lns[i])
		srv.StartFleet()
	}

	// A distinct fault per peer: breaking a different number of the coupled
	// metrics yields a different violation tuple, so the fleet-wide union is
	// exactly one signature per peer.
	bg := context.Background()
	faultBatches := make([][]server.Sample, fleetSmokePeers)
	for i := range srvs {
		faultBatches[i] = client.SynthBatch(stats.NewRNG(int64(100+i)),
			client.LoadConfig{Coupled: 2 + 2*i}, 40)
		problem := fmt.Sprintf("fault-%d", i)
		if err := clients[i].AddSignature(bg, workload, node, problem, faultBatches[i]); err != nil {
			return fmt.Errorf("labelling %s on peer %d: %w", problem, i, err)
		}
	}

	// Convergence: every peer must hold all three signatures. The rounds each
	// peer needed are the anti-entropy efficiency metric.
	if err := poll(30*time.Second, func() (bool, error) {
		for i := range clients {
			sigs, err := clients[i].Signatures(bg)
			if err != nil {
				return false, err
			}
			if sigs.Count < fleetSmokePeers {
				return false, nil
			}
		}
		return true, nil
	}); err != nil {
		return fmt.Errorf("signature union did not converge: %w", err)
	}
	rounds := make([]int64, fleetSmokePeers)
	for i := range clients {
		st, err := clients[i].Stats(bg)
		if err != nil {
			return err
		}
		if st.Fleet == nil {
			return fmt.Errorf("peer %d stats missing the fleet block", i)
		}
		rounds[i] = st.Fleet.SyncRounds
	}
	log.Printf("fleet-smoke: converged: %d signatures on every peer (sync rounds per peer: %v)",
		fleetSmokePeers, rounds)

	// Cross-peer recognition: peer 1 never saw fault-0 labelled; its local
	// gossip-built replica must still name it.
	diag, err := clients[1].Diagnose(bg, workload, node, faultBatches[0], true)
	if err != nil {
		return fmt.Errorf("cross-peer diagnose: %w", err)
	}
	if diag.Report == nil || diag.Report.Diagnosis == nil {
		return fmt.Errorf("cross-peer diagnose returned no diagnosis (status %s)", diag.Status)
	}
	if rc := diag.Report.Diagnosis.RootCause; rc != "fault-0" {
		return fmt.Errorf("peer 1 diagnosed %q, want fault-0 (learned on peer 0)", rc)
	}
	log.Printf("fleet-smoke: peer 1 recognised fault-0 from its replica (labelled on peer 0)")

	// Kill peer 2: stop its gossip (no outbound traffic keeping it passively
	// alive) and hard-close its HTTP server — listener and live connections
	// both, or the survivors' pooled keep-alive connections would keep
	// reaching the corpse. The survivors must declare it dead and keep all
	// three signatures.
	stopCtx, cancel := context.WithTimeout(bg, 5*time.Second)
	srvs[2].Fleet().Stop(stopCtx)
	cancel()
	hss[2].Close()
	// Each survivor runs its own failure detector, so wait for both views:
	// peer 0 declaring the death says nothing about peer 1's view yet.
	seesDead := func(i int) (bool, error) {
		peers, err := clients[i].Peers(bg)
		if err != nil {
			return false, err
		}
		for _, p := range peers.Peers {
			if p.Addr == addrs[2] {
				return p.State == "dead", nil
			}
		}
		return false, fmt.Errorf("peer %d lost %s from its peer set", i, addrs[2])
	}
	if err := poll(30*time.Second, func() (bool, error) {
		for i := 0; i < 2; i++ {
			if dead, err := seesDead(i); err != nil || !dead {
				return false, err
			}
		}
		return true, nil
	}); err != nil {
		return fmt.Errorf("peer death not detected: %w", err)
	}
	for i := 0; i < 2; i++ {
		sigs, err := clients[i].Signatures(bg)
		if err != nil {
			return err
		}
		if sigs.Count < fleetSmokePeers {
			return fmt.Errorf("peer %d lost signatures after the kill: %d < %d", i, sigs.Count, fleetSmokePeers)
		}
	}
	pv, err := clients[0].Peers(bg)
	if err != nil {
		return err
	}
	alive := 0
	for _, p := range pv.Peers {
		if p.State == "alive" {
			alive++
		}
	}
	log.Printf("fleet-smoke: peer view after kill: %d peers (%d alive, 1 dead), signatures intact",
		pv.Count, alive)

	// Clean exit for the survivors: drain flushes deltas and persists the
	// anti-entropy state next to the models.
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(bg, 30*time.Second)
		err := srvs[i].Shutdown(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("peer %d shutdown: %w", i, err)
		}
		if _, err := os.Stat(filepath.Join(dirs[i], "fleet-state.xml")); err != nil {
			return fmt.Errorf("peer %d did not persist fleet state: %w", i, err)
		}
	}
	return nil
}

// poll runs probe at a short interval until it reports done or the budget
// elapses.
func poll(budget time.Duration, probe func() (bool, error)) error {
	deadline := time.Now().Add(budget)
	for {
		done, err := probe()
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// trainFleetContext trains one (workload, node) context from the generator's
// coupled synthetic telemetry — the same recipe the -smoke self-test uses.
func trainFleetContext(sys *core.System, workload, node string) error {
	rng := stats.NewRNG(7)
	ctx := core.Context{Workload: workload, IP: node}
	var runs []*metrics.Trace
	var cpis [][]float64
	for r := 0; r < 6; r++ {
		batch := client.SynthBatch(rng.Fork(int64(r)), client.LoadConfig{}, 100)
		tr, err := server.TraceFromSamples(workload, node, batch)
		if err != nil {
			return err
		}
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := sys.TrainPerformanceModel(ctx, cpis); err != nil {
		return err
	}
	return sys.TrainInvariants(ctx, runs)
}
