package server

import (
	"context"
	"net/http"
	"path/filepath"

	"invarnetx/internal/fleet"
	"invarnetx/internal/signature"
)

// fleetStateFile names the fleet's persisted anti-entropy state inside
// StoreDir (written by fleet.SaveState, read back by fleet.LoadState).
const fleetStateFile = "fleet-state.xml"

// initFleet builds the peer subsystem from cfg.Fleet: installs the replicated
// signature applier, restores persisted anti-entropy state from StoreDir, and
// mounts the gossip surface plus GET /v1/peers. The loop stays stopped until
// StartFleet — tests step rounds manually.
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
		s.fleet.LoadState(filepath.Join(s.cfg.StoreDir, fleetStateFile))
	}
	s.mux.Handle("/v1/fleet/", http.StripPrefix("/v1/fleet", s.fleet.Handler()))
	s.mux.HandleFunc("GET /v1/peers", s.handlePeers)
}

// Fleet returns the peer subsystem, nil when federation is disabled.
func (s *Server) Fleet() *fleet.Fleet { return s.fleet }

// StartFleet launches the anti-entropy loop. The daemon calls this once its
// HTTP listener is accepting, so peers exchanging back during boot do not
// count misses against a socket that is not up yet. No-op when federation is
// disabled.
func (s *Server) StartFleet() {
	if s.fleet != nil {
		s.fleet.Start()
	}
}

// stopFleet is the drain-time counterpart: stop the loop, then flush — one
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
	return s.fleet.SaveState(filepath.Join(s.cfg.StoreDir, fleetStateFile))
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
