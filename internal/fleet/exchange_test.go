package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invarnetx/internal/xmlstore"
)

// bootGossipPeer serves one bare Fleet (no serving stack behind it) on a
// loopback listener. Loops stay stopped: replication advances only when the
// test calls SyncRound.
func bootGossipPeer(t *testing.T, peers ...string) *Fleet {
	t.Helper()
	srv := httptest.NewUnstartedServer(nil)
	f := New(Config{Self: srv.Listener.Addr().String(), Peers: peers})
	mux := http.NewServeMux()
	mux.Handle("/v1/fleet/", http.StripPrefix("/v1/fleet", f.Handler()))
	srv.Config.Handler = mux
	srv.Start()
	t.Cleanup(srv.Close)
	return f
}

// wideTuple renders i as a 325-coordinate tuple (the most 26 metrics can
// select), distinct for every i below 2^32.
func wideTuple(i int) string {
	return fmt.Sprintf("%032b", i) + strings.Repeat("01", 146) + "0"
}

// TestLateJoinerPastTheExchangeCap: a peer further behind than one exchange
// may carry converges over ⌈N/cap⌉ rounds, whichever side initiates. Before
// the cap the push of such a backlog was refused by the receiver's body
// limit on every round (the drain-time flush included) while the pull went
// through unbounded.
func TestLateJoinerPastTheExchangeCap(t *testing.T) {
	const n = 2*maxExchangeRecords + 1
	const wantRounds = 3
	bg := context.Background()
	// A record the size real ones reach: a full-width tuple and a runbook
	// title for a problem name. n of them are past maxGossipBody as one body.
	problem := "replica-lag: " + strings.Repeat("x", 160)

	joiner := bootGossipPeer(t)
	full := bootGossipPeer(t, joiner.Self())
	for i := 0; i < n; i++ {
		full.Record("wordcount", "10.0.0.2", problem, wideTuple(i))
	}
	if full.Store().Len() != n {
		t.Fatalf("setup: %d records issued, want %d", full.Store().Len(), n)
	}

	// step runs one round on the initiator and checks the receiver's clock
	// for the origin advanced by exactly one exchange's worth (so it is
	// monotone from round to round).
	step := func(dir string, round int, initiator, receiver *Fleet) {
		t.Helper()
		initiator.SyncRound(bg)
		st := initiator.Stats()
		if st.SyncFailures != 0 {
			t.Fatalf("%s round %d: %d sync failures", dir, round, st.SyncFailures)
		}
		want := uint64(min(round*maxExchangeRecords, n))
		if got := receiver.Store().Vector()[full.Self()]; got != want {
			t.Fatalf("%s round %d: receiver clock %d, want %d", dir, round, got, want)
		}
		if round <= wantRounds && st.RoundsSinceChange != 0 {
			t.Errorf("%s round %d: roundsSinceChange = %d while records still moved", dir, round, st.RoundsSinceChange)
		}
		if round > wantRounds && st.RoundsSinceChange != int64(round-wantRounds) {
			t.Errorf("%s round %d: roundsSinceChange = %d after convergence, want %d",
				dir, round, st.RoundsSinceChange, round-wantRounds)
		}
	}

	// Push: the full peer initiates against the empty one.
	for round := 1; round <= wantRounds+1; round++ {
		step("push", round, full, joiner)
	}
	if !reflect.DeepEqual(joiner.Store().log, full.Store().log) {
		t.Fatalf("push: logs differ after %d rounds (%d vs %d records)",
			wantRounds, joiner.Store().Len(), full.Store().Len())
	}

	// Pull: a second empty peer initiates against the full one.
	puller := bootGossipPeer(t, full.Self())
	for round := 1; round <= wantRounds+1; round++ {
		step("pull", round, puller, puller)
	}
	if !reflect.DeepEqual(puller.Store().log, full.Store().log) {
		t.Fatalf("pull: logs differ after %d rounds (%d vs %d records)",
			wantRounds, puller.Store().Len(), full.Store().Len())
	}
}

// TestColdRestartContinuesOwnSequence: a daemon that restarts under the same
// address with its fleet state lost gets its own records back from a peer —
// and must stamp its next label past them. Reissuing seq 1 moved its own
// clock backwards and left the new record covered by every peer's clock for
// that origin, so it never replicated.
func TestColdRestartContinuesOwnSequence(t *testing.T) {
	a, b := NewStore("a:1"), NewStore("b:1")
	for i := 0; i < 3; i++ {
		a.Append("wordcount", "10.0.0.2", fmt.Sprintf("fault-%d", i), wideTuple(i))
	}
	b.Apply(a.Missing(b.Vector()))

	// Both ways a restarted daemon meets records of its own origin: pulled
	// back from a peer, and loaded from a fleet file whose next-seq is behind
	// (absent).
	pulled := NewStore("a:1")
	if fresh := pulled.Apply(b.Missing(pulled.Vector())); len(fresh) != 3 {
		t.Fatalf("restarted peer pulled %d of its 3 records back", len(fresh))
	}
	file := b.file()
	file.Self, file.NextSeq = "a:1", 0
	path := filepath.Join(t.TempDir(), "fleet-state.xml")
	if err := xmlstore.SaveFile(path, file); err != nil {
		t.Fatal(err)
	}
	loaded := New(Config{Self: "a:1", Logf: func(format string, args ...any) { t.Fatalf(format, args...) }})
	loaded.LoadState(path)
	restored := loaded.store

	for name, a2 := range map[string]*Store{"pulled": pulled, "restored": restored} {
		r, ok := a2.Append("wordcount", "10.0.0.2", "fault-new", wideTuple(3))
		if !ok || r.Seq != 4 || a2.Vector()["a:1"] != 4 {
			t.Errorf("%s: new label stamped %s:%d (issued %v) under vector %v, want a:1 seq 4", name, r.Origin, r.Seq, ok, a2.Vector())
			continue
		}
		peer := NewStore("b:1")
		peer.Apply(b.Missing(nil))
		fresh := peer.Apply(a2.Missing(peer.Vector()))
		if len(fresh) != 1 || peer.Len() != 4 || peer.Vector()["a:1"] != 4 {
			t.Errorf("%s: peer got %d fresh, holds %d records at a:1 = %d; want 1, 4, 4",
				name, len(fresh), peer.Len(), peer.Vector()["a:1"])
		}
	}
}

// TestForgedSeqCannotCoverAnOrigin: a record further past its origin's clock
// than a whole exchange could reach is skipped like a covered one, so one bad
// seq does not hide every honest record of that origin for good.
func TestForgedSeqCannotCoverAnOrigin(t *testing.T) {
	s := NewStore("self:1")
	rec := func(seq uint64, problem string) Record {
		return Record{Origin: "x:1", Seq: seq, Workload: "sort", Node: "10.0.0.3", Problem: problem, Tuple: "0110"}
	}
	for _, seq := range []uint64{1<<64 - 1, maxExchangeRecords + 1} {
		if fresh := s.Apply([]Record{rec(seq, "forged")}); len(fresh) != 0 || s.Len() != 0 || len(s.Vector()) != 0 {
			t.Fatalf("seq %d: %d fresh, log %d, vector %v; want the record skipped", seq, len(fresh), s.Len(), s.Vector())
		}
	}
	if fresh := s.Apply([]Record{rec(1, "honest")}); len(fresh) != 1 || s.Vector()["x:1"] != 1 {
		t.Fatalf("honest x:1 seq 1 applied %d, vector %v", len(fresh), s.Vector())
	}
	// The furthest an honest exchange reaches is still accepted.
	if fresh := s.Apply([]Record{rec(1+maxExchangeRecords, "edge")}); len(fresh) != 1 {
		t.Errorf("a record exactly one exchange past the clock was refused")
	}
}
