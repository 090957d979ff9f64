package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
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
