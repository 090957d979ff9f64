package fleet

import (
	"net"
	"sort"
	"sync"
	"time"
)

// State is a peer's liveness in the suspect/dead state machine, fed by the
// anti-entropy rounds themselves: every exchange with a peer is one probe of
// it. A peer is Alive while exchanges succeed; consecutive failures move it
// to Suspect (still exchanged with — one missed round must not partition a
// slow peer off) and then Dead (only probed, so a restart resurrects it).
type State int

const (
	Alive State = iota
	Suspect
	Dead
)

func (s State) String() string { return [...]string{"alive", "suspect", "dead"}[s] }

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
	seed     bool // named in the bootstrap list: never dropped
}

// Liveness thresholds in consecutive failed exchanges — one per sync round,
// so at DefaultSyncInterval a killed peer is dead after about five seconds.
const (
	suspectAfter = 2
	deadAfter    = 5
)

// maxPeers caps the peer set that inbound senders can add themselves to: a
// peer is dialled every round, so an unbounded set would let any client that
// can POST a gossip body grow this daemon's work without limit. Bootstrap
// peers are always kept, whatever their number.
const maxPeers = 64

// membership tracks the fleet's peers and their liveness.
type membership struct {
	self string
	now  func() time.Time

	mu    sync.Mutex
	peers map[string]*peer
}

func newMembership(self string, seeds []string, now func() time.Time) *membership {
	m := &membership{
		self:  self,
		now:   now,
		peers: make(map[string]*peer),
	}
	for _, addr := range seeds {
		if addr != "" && addr != self {
			m.peers[addr] = &peer{addr: addr, state: Alive, seed: true}
		}
	}
	return m
}

// observe marks a successful contact with addr — an exchange it answered, or
// an inbound message from it (passive liveness: a peer that can reach us is
// alive even if our own round races its boot). An unknown sender joins the
// peer set, healing one-sided bootstrap lists, if its address is a host:port
// and the set holds fewer than maxPeers; otherwise it is answered but never
// dialled. Returns true when the peer's state changed (resurrection or first
// sight).
func (m *membership) observe(addr string) bool {
	if addr == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.peers[addr]
	if !ok {
		if _, _, err := net.SplitHostPort(addr); err != nil || len(m.peers) >= maxPeers {
			return false
		}
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

// fail records one failed exchange with addr and advances the state machine.
// Returns the state after the failure and whether the failure changed it. A
// peer that turns dead and is not a bootstrap peer leaves the set: a
// restarted one rejoins by its next inbound message, and an address a client
// announced but nobody serves stops costing a probe per round.
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
	case p.misses >= deadAfter:
		p.state = Dead
	case p.misses >= suspectAfter:
		p.state = Suspect
	}
	if p.state == Dead && !p.seed {
		delete(m.peers, addr)
	}
	return p.state, p.state != prev
}

// targets returns every known peer, each group sorted by address: the alive
// and suspect peers a round exchanges with in turn, and the dead ones it
// probes, so a restarted daemon rejoins without operator action.
func (m *membership) targets() (live, dead []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		if p.state == Dead {
			dead = append(dead, p.addr)
		} else {
			live = append(live, p.addr)
		}
	}
	sort.Strings(live)
	sort.Strings(dead)
	return live, dead
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
