package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func testClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	return func() time.Time { return t0 }
}

func TestMembershipSuspectDeadTransitions(t *testing.T) {
	m := newMembership("self:1", []string{"p:1"}, testClock())
	if st, changed := m.fail("p:1", errors.New("refused")); st != Alive || changed {
		t.Fatalf("after 1 miss: %v (changed=%v), want alive, unchanged", st, changed)
	}
	if st, changed := m.fail("p:1", nil); st != Suspect || !changed {
		t.Fatalf("after 2 misses: %v (changed=%v), want a transition to suspect", st, changed)
	}
	// Suspect peers keep getting gossiped with.
	if live, _ := m.targets(); len(live) != 1 {
		t.Fatalf("suspect peer dropped from gossip: %v", live)
	}
	// Misses 3 and 4 change nothing; miss 5 (deadAfter) is the transition.
	for miss := 3; miss <= 5; miss++ {
		st, changed := m.fail("p:1", nil)
		if wantDead := miss == 5; (st == Dead) != wantDead || changed != wantDead {
			t.Fatalf("after %d misses: %v (changed=%v)", miss, st, changed)
		}
	}
	alive, suspect, dead := m.counts()
	if alive != 0 || suspect != 0 || dead != 1 {
		t.Fatalf("counts = %d/%d/%d, want 0/0/1", alive, suspect, dead)
	}
	// A dead bootstrap peer stays in the round as a resurrection probe.
	if live, dead := m.targets(); len(live) != 0 || len(dead) != 1 {
		t.Errorf("dead peer not probed: live %v, dead %v", live, dead)
	}
	// A peer this daemon never heard of has no state to change.
	if st, changed := m.fail("stranger:1", nil); st != Dead || changed {
		t.Errorf("unknown peer: %v (changed=%v), want dead, unchanged", st, changed)
	}
}

func TestMembershipResurrectionViaObserve(t *testing.T) {
	m := newMembership("self:1", []string{"p:1"}, testClock())
	for i := 0; i < deadAfter; i++ {
		m.fail("p:1", errors.New("down"))
	}
	if _, _, dead := m.counts(); dead != 1 {
		t.Fatal("setup: peer not dead")
	}
	if !m.observe("p:1") {
		t.Fatal("observe of dead peer reported no change")
	}
	alive, _, _ := m.counts()
	if alive != 1 {
		t.Fatalf("alive = %d after resurrection", alive)
	}
	// Misses reset: one new failure must not re-kill it.
	if st, _ := m.fail("p:1", nil); st != Alive {
		t.Errorf("state after single post-resurrection miss = %v", st)
	}
}

func TestMembershipUnknownSenderJoins(t *testing.T) {
	m := newMembership("self:1", nil, testClock())
	if !m.observe("new:1") {
		t.Fatal("first sight of unknown peer reported no change")
	}
	if live, _ := m.targets(); len(live) != 1 || live[0] != "new:1" {
		t.Fatalf("gossip targets = %v", live)
	}
	// Self and empty addresses never join.
	if m.observe("self:1") || m.observe("") {
		t.Error("self or empty address joined the peer set")
	}
	snap := m.snapshot()
	if len(snap) != 1 || snap[0].Addr != "new:1" || snap[0].State != "alive" {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap[0].LastSeenSec != 0 {
		t.Errorf("lastSeenSec = %v, want 0 under frozen clock", snap[0].LastSeenSec)
	}
}

// TestMembershipRoundOrder pins how one sync round splits the peer set:
// every alive or suspect peer in the sequential exchanges, the dead ones in
// the probes, each group by address.
func TestMembershipRoundOrder(t *testing.T) {
	m := newMembership("self:1", []string{"d:1", "c:1", "b:1", "a:1"}, testClock())
	for i := 0; i < deadAfter; i++ {
		m.fail("a:1", nil)
		m.fail("c:1", nil)
	}
	for i := 0; i < suspectAfter; i++ {
		m.fail("b:1", nil)
	}
	check := func(when string, wantLive, wantDead []string) {
		t.Helper()
		live, dead := m.targets()
		if !reflect.DeepEqual(live, wantLive) || !reflect.DeepEqual(dead, wantDead) {
			t.Errorf("%s: exchanged %v, probed %v; want %v, %v", when, live, dead, wantLive, wantDead)
		}
	}
	check("two dead", []string{"b:1", "d:1"}, []string{"a:1", "c:1"})
	// A resurrected peer moves back into the exchanges.
	m.observe("c:1")
	check("after resurrection", []string{"b:1", "c:1", "d:1"}, []string{"a:1"})
}

// TestMembershipDropsDeadJoiners: a peer that joined by announcing itself
// leaves the set when it turns dead — its slot under maxPeers is freed and no
// round probes it again — while a dead bootstrap peer stays to be probed. A
// dropped peer rejoins by its next inbound message.
func TestMembershipDropsDeadJoiners(t *testing.T) {
	m := newMembership("self:1", []string{"seed:1"}, testClock())
	m.observe("joiner:1")
	for miss := 1; miss <= deadAfter; miss++ {
		m.fail("seed:1", nil)
		st, changed := m.fail("joiner:1", nil)
		if miss == deadAfter && (st != Dead || !changed) {
			t.Fatalf("joiner after %d misses: %v (changed=%v), want a transition to dead", miss, st, changed)
		}
	}
	if live, dead := m.targets(); len(live) != 0 || !reflect.DeepEqual(dead, []string{"seed:1"}) {
		t.Errorf("after both died: exchanged %v, probed %v; want only seed:1 probed", live, dead)
	}
	if snap := m.snapshot(); len(snap) != 1 || snap[0].Addr != "seed:1" {
		t.Errorf("snapshot after the joiner died = %+v, want only seed:1", snap)
	}
	if !m.observe("joiner:1") {
		t.Error("a dropped joiner did not rejoin on its next message")
	}
}

// hangingPeer listens on loopback, accepts connections and never answers on
// them: a peer powered off behind a live address, or whose packets are
// dropped, as a dialler sees it. Returns the address.
func hangingPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	return ln.Addr().String()
}

// TestHangingDeadPeersDelayNoRound: dead peers that accept and never answer
// are probed every round, yet the round — and with it replication to the
// live peer and the next round's start — finishes inside one sync interval,
// well short of the 3 s RPC timeout a sequential exchange with each would
// cost. Their failed probes are not counted as exchange failures.
func TestHangingDeadPeersDelayNoRound(t *testing.T) {
	const hanging = 4
	live := bootGossipPeer(t)
	seeds := []string{live.Self()}
	for i := 0; i < hanging; i++ {
		seeds = append(seeds, hangingPeer(t))
	}
	f := bootGossipPeer(t, seeds...)
	for _, addr := range seeds[1:] {
		for i := 0; i < deadAfter; i++ {
			f.members.fail(addr, errors.New("setup"))
		}
	}
	if _, _, dead := f.members.counts(); dead != hanging {
		t.Fatalf("setup: %d dead peers, want %d", dead, hanging)
	}

	for round := 1; round <= 2; round++ {
		f.Record("wordcount", "10.0.0.2", fmt.Sprintf("fault-%d", round), wideTuple(round))
		start := time.Now()
		f.SyncRound(context.Background())
		if elapsed := time.Since(start); elapsed >= DefaultSyncInterval {
			t.Errorf("round %d with %d hanging dead peers took %v, want under one sync interval (%v)",
				round, hanging, elapsed, DefaultSyncInterval)
		}
		if got := live.Store().Vector()[f.Self()]; got != uint64(round) {
			t.Errorf("round %d: live peer holds seq %d of the origin, want %d", round, got, round)
		}
	}
	for _, pi := range f.Peers() {
		if pi.Addr != live.Self() && (pi.State != "dead" || pi.Misses != deadAfter+2) {
			t.Errorf("hanging peer %s: %s after %d misses, want dead after %d (probed in both rounds)",
				pi.Addr, pi.State, pi.Misses, deadAfter+2)
		}
	}
	if st := f.Stats(); st.SyncFailures != 0 {
		t.Errorf("syncFailures = %d, want 0: probes of peers already dead are no exchange errors", st.SyncFailures)
	}
}

// TestMembershipJoinsOnlyValidSendersUpToTheCap: an inbound sender joins the
// peer set only under a host:port address and while the set holds fewer than
// maxPeers; past that its request is still answered. Bootstrap peers are kept
// whatever their number.
func TestMembershipJoinsOnlyValidSendersUpToTheCap(t *testing.T) {
	f := New(Config{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}})
	h := f.Handler()
	post := func(path string, body any) int {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
		return w.Code
	}
	for _, from := range []string{"no-port", "10.0.0.1", "host:port:extra", "[::1"} {
		if code := post("/sync", syncRequest{From: from}); code != http.StatusOK {
			t.Fatalf("sync from %q answered %d, want 200", from, code)
		}
	}
	if n := len(f.Peers()); n != 1 {
		t.Fatalf("senders without a host:port joined: %v", f.Peers())
	}
	for i := 0; i < 1000; i++ {
		from := fmt.Sprintf("10.%d.%d.1:7070", i/250, i%250)
		if code := post("/sync", syncRequest{From: from, Vector: Vector{}}); code != http.StatusOK {
			t.Fatalf("sync %d answered %d, want 200", i, code)
		}
	}
	if n := len(f.Peers()); n != maxPeers {
		t.Fatalf("1000 distinct senders left %d peers, want the cap %d", n, maxPeers)
	}
	if code := post("/push", pushRequest{From: "10.9.9.9:7070"}); code != http.StatusOK {
		t.Errorf("push from a sender past the cap answered %d, want 200", code)
	}

	// Bootstrap peers beyond the cap all stay.
	seeds := make([]string, maxPeers+8)
	for i := range seeds {
		seeds[i] = net.JoinHostPort("127.0.0.1", fmt.Sprint(2000+i))
	}
	m := newMembership("self:1", seeds, testClock())
	if live, _ := m.targets(); len(live) != len(seeds) {
		t.Errorf("%d bootstrap peers kept of %d", len(live), len(seeds))
	}
	if m.observe("new:1") {
		t.Error("a sender joined a set already past the cap")
	}
}
