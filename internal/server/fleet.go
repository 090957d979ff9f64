package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"

	"invarnetx/internal/fleet"
	"invarnetx/internal/signature"
	"invarnetx/internal/xmlstore"
)

// fleetStateFile is the persisted anti-entropy state inside StoreDir: this
// daemon's origin identity, its next sequence number, the per-peer version
// vector and the replicated record log. A restart restores it so the first
// sync round after boot diffs incrementally instead of refetching the fleet.
const fleetStateFile = "fleet-state.xml"

// initFleet builds the peer subsystem from cfg.Fleet: installs the replicated
// signature applier, restores persisted anti-entropy state from StoreDir, and
// mounts the gossip surface plus GET /v1/peers. Loops stay stopped until
// StartFleet — tests and the smoke harness step rounds manually.
func (s *Server) initFleet(fcfg fleet.Config) {
	fcfg.Apply = func(r fleet.Record) bool {
		t, err := signature.ParseTuple(r.Tuple)
		if err != nil {
			return false
		}
		return s.sys.MergeSignature(signature.Entry{
			Tuple: t, Problem: r.Problem, IP: r.Node, Workload: r.Workload,
		})
	}
	s.fleet = fleet.New(fcfg)
	if s.cfg.StoreDir != "" {
		s.restoreFleetState()
	}
	s.mux.Handle("/v1/fleet/", http.StripPrefix("/v1/fleet", s.fleet.Handler()))
	s.mux.HandleFunc("GET /v1/peers", s.handlePeers)
}

// restoreFleetState loads fleet-state.xml, if present and intact. Damage or
// an identity change (the operator re-advertised the daemon under a new
// address) means a cold fleet boot: the first anti-entropy round refetches,
// which is correct, just not incremental.
func (s *Server) restoreFleetState() {
	var f xmlstore.FleetFile
	path := filepath.Join(s.cfg.StoreDir, fleetStateFile)
	if err := xmlstore.LoadFile(path, &f); err != nil {
		return // missing on cold boot; unreadable means refetch
	}
	if err := f.Validate(); err != nil || f.Self != s.fleet.Self() {
		return
	}
	s.fleet.InstallRestored(s.fleet.Store().Restore(&f))
}

// Fleet returns the peer subsystem, nil when federation is disabled.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// StartFleet launches the heartbeat and anti-entropy loops. The daemon calls
// this once its HTTP listener is accepting, so peers probing back during
// boot do not count misses against a socket that is not up yet. No-op when
// federation is disabled.
func (s *Server) StartFleet() {
	if s.fleet != nil {
		s.fleet.Start()
	}
}

// stopFleet is the drain-time counterpart: stop the loops, then flush — one
// final push-pull with every reachable peer — so signatures this daemon
// accepted but had not yet gossiped survive its exit. The anti-entropy state
// persists afterwards so the flush's vector advances land on disk too.
func (s *Server) stopFleet(ctx context.Context) error {
	if s.fleet == nil {
		return nil
	}
	s.fleet.Stop(ctx)
	if s.cfg.StoreDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.cfg.StoreDir, 0o755); err != nil {
		return err
	}
	return xmlstore.SaveFile(filepath.Join(s.cfg.StoreDir, fleetStateFile), s.fleet.Store().File())
}

// PeersResponse is the GET /v1/peers payload.
type PeersResponse struct {
	Self  string           `json:"self"`
	Count int              `json:"count"`
	Peers []fleet.PeerInfo `json:"peers"`
}

func (s *Server) handlePeers(w http.ResponseWriter, _ *http.Request) {
	peers := s.fleet.Peers()
	writeJSON(w, http.StatusOK, PeersResponse{
		Self:  s.fleet.Self(),
		Count: len(peers),
		Peers: peers,
	})
}
