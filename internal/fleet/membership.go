package fleet

import (
	"sort"
	"sync"
	"time"
)

// State is a peer's liveness in the suspect/dead state machine. A peer is
// Alive while heartbeats and exchanges succeed; consecutive failures move it
// to Suspect (still gossiped with — a slow peer must not be partitioned off
// by one missed beat) and then Dead (dropped from gossip, still pinged so a
// restart resurrects it).
type State int

const (
	Alive State = iota
	Suspect
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	default:
		return "unknown"
	}
}

// PeerInfo is the operator view of one peer (GET /v1/peers).
type PeerInfo struct {
	Addr        string  `json:"addr"`
	State       string  `json:"state"`
	Misses      int     `json:"misses"`
	LastSeenSec float64 `json:"lastSeenSec"` // seconds since last successful contact; -1 = never
	LastErr     string  `json:"lastErr,omitempty"`
}

// peer is one remote daemon's liveness record.
type peer struct {
	addr     string
	state    State
	misses   int
	lastSeen time.Time
	lastErr  string
}

// membership tracks the fleet's peers and their liveness.
type membership struct {
	self         string
	suspectAfter int // consecutive misses before Alive -> Suspect
	deadAfter    int // consecutive misses before -> Dead
	now          func() time.Time

	mu    sync.Mutex
	peers map[string]*peer
}

func newMembership(self string, seeds []string, suspectAfter, deadAfter int, now func() time.Time) *membership {
	m := &membership{
		self:         self,
		suspectAfter: suspectAfter,
		deadAfter:    deadAfter,
		now:          now,
		peers:        make(map[string]*peer),
	}
	for _, addr := range seeds {
		if addr != "" && addr != self {
			m.peers[addr] = &peer{addr: addr, state: Alive}
		}
	}
	return m
}

// observe marks a successful contact with addr — an answered heartbeat, an
// exchange, or an inbound message from it (passive liveness: a peer that can
// reach us is alive even if our own probes race its boot). Unknown senders
// join the peer set, healing one-sided bootstrap lists. Returns true when
// the peer's state changed (resurrection or first sight).
func (m *membership) observe(addr string) bool {
	if addr == "" || addr == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		p = &peer{addr: addr}
		m.peers[addr] = p
	}
	changed := !ok || p.state != Alive
	p.state = Alive
	p.misses = 0
	p.lastErr = ""
	p.lastSeen = m.now()
	return changed
}

// fail records one failed probe of addr and advances the state machine.
// Returns the state after the failure and whether the failure changed it.
func (m *membership) fail(addr string, err error) (st State, changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		return Dead, false
	}
	p.misses++
	if err != nil {
		p.lastErr = err.Error()
	}
	prev := p.state
	switch {
	case p.misses >= m.deadAfter:
		p.state = Dead
	case p.misses >= m.suspectAfter:
		p.state = Suspect
	}
	return p.state, p.state != prev
}

// gossipTargets returns the peers an anti-entropy round should exchange
// with: everyone not dead.
func (m *membership) gossipTargets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, p := range m.peers {
		if p.state != Dead {
			out = append(out, p.addr)
		}
	}
	sort.Strings(out)
	return out
}

// probeTargets returns every known peer, dead included: heartbeats keep
// probing the dead so a restarted daemon rejoins without operator action.
func (m *membership) probeTargets() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, p.addr)
	}
	sort.Strings(out)
	return out
}

// snapshot returns the operator view, sorted by address.
func (m *membership) snapshot() []PeerInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]PeerInfo, 0, len(m.peers))
	for _, p := range m.peers {
		info := PeerInfo{
			Addr:        p.addr,
			State:       p.state.String(),
			Misses:      p.misses,
			LastSeenSec: -1,
			LastErr:     p.lastErr,
		}
		if !p.lastSeen.IsZero() {
			info.LastSeenSec = now.Sub(p.lastSeen).Seconds()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Addr < out[b].Addr })
	return out
}

// counts tallies peers by state.
func (m *membership) counts() (alive, suspect, dead int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		switch p.state {
		case Alive:
			alive++
		case Suspect:
			suspect++
		case Dead:
			dead++
		}
	}
	return
}
