package fleet

import (
	"errors"
	"testing"
	"time"
)

func testClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	return func() time.Time { return t0 }
}

func TestMembershipSuspectDeadTransitions(t *testing.T) {
	m := newMembership("self:1", []string{"p:1"}, 2, 5, testClock())
	if st, changed := m.fail("p:1", errors.New("refused")); st != Alive || changed {
		t.Fatalf("after 1 miss: %v (changed=%v), want alive, unchanged", st, changed)
	}
	if st, changed := m.fail("p:1", nil); st != Suspect || !changed {
		t.Fatalf("after 2 misses: %v (changed=%v), want a transition to suspect", st, changed)
	}
	// Suspect peers keep getting gossiped with.
	if targets := m.gossipTargets(); len(targets) != 1 {
		t.Fatalf("suspect peer dropped from gossip: %v", targets)
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
	// Dead peers leave gossip but stay probed for resurrection.
	if targets := m.gossipTargets(); len(targets) != 0 {
		t.Errorf("dead peer still gossiped: %v", targets)
	}
	if targets := m.probeTargets(); len(targets) != 1 {
		t.Errorf("dead peer not probed: %v", targets)
	}
	// A peer this daemon never heard of has no state to change.
	if st, changed := m.fail("stranger:1", nil); st != Dead || changed {
		t.Errorf("unknown peer: %v (changed=%v), want dead, unchanged", st, changed)
	}
}

func TestMembershipResurrectionViaObserve(t *testing.T) {
	m := newMembership("self:1", []string{"p:1"}, 2, 3, testClock())
	for i := 0; i < 3; i++ {
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
	m := newMembership("self:1", nil, 2, 5, testClock())
	if !m.observe("new:1") {
		t.Fatal("first sight of unknown peer reported no change")
	}
	if targets := m.gossipTargets(); len(targets) != 1 || targets[0] != "new:1" {
		t.Fatalf("gossip targets = %v", targets)
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
