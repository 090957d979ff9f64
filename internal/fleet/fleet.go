// Package fleet federates invarnetd daemons into one diagnosis fleet: a
// fault signature learned on any peer becomes recognizable everywhere,
// without a coordinator and without one-shot exports.
//
// Two layers, smallest-first:
//
//   - membership: static bootstrap (-peers) plus a suspect/dead state
//     machine fed by the anti-entropy rounds: each round exchanges with
//     every live peer and probes the dead ones under a short deadline, so
//     the round is the liveness probe and a restarted peer rejoins.
//   - anti-entropy: the signature database is append-mostly and tiny, so
//     replication is a CRDT-style union keyed by (context, fingerprint).
//     Every record carries (origin, seq); per-peer version vectors make each
//     exchange ship exactly what the remote is missing (push-pull per
//     round, at most maxExchangeRecords each way), and persisted vectors
//     make restarts resume incrementally.
//
// Every peer answers a diagnosis from its own stream window, its own model
// and its gossip-built replica of the signature base: a verdict needs the
// window and the model, which are not replicated, so the daemon that was
// asked is the only one that can give it.
//
// The serving layer mounts Handler() under /v1/fleet/ on its existing HTTP
// listener — one port per daemon carries data, control and gossip.
package fleet

import (
	"context"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"invarnetx/internal/stats"
)

// DefaultSyncInterval is the anti-entropy round interval, and so also the
// liveness probe interval.
const DefaultSyncInterval = 1 * time.Second

// rpcClient is the peer transport. Its timeout bounds one peer exchange: a
// wedged peer must cost at most this per round, not pin the loop.
var rpcClient = &http.Client{Timeout: 3 * time.Second}

// Config assembles a fleet peer.
type Config struct {
	// Self is this daemon's advertised address (host:port of its HTTP
	// listener) — peers dial it, and it doubles as the origin identity
	// stamped on locally learned signatures, so it must be stable across
	// restarts.
	Self string
	// Peers is the static bootstrap list (host:port each). One-sided lists
	// heal: an inbound message from an unknown peer joins it to the set.
	Peers []string
	// SyncInterval is the anti-entropy round interval (jittered ±50%).
	SyncInterval time.Duration
	// Apply installs one replicated signature into the local system,
	// reporting whether it was new there. Set by the serving layer.
	Apply func(Record) bool
	// Logf, when set, receives membership transitions, push errors and the
	// reason a persisted fleet state was not restored.
	Logf func(format string, args ...any)
}

// withDefaults normalises the knobs.
func (c Config) withDefaults() Config {
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	if c.Apply == nil {
		c.Apply = func(Record) bool { return false }
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Stats is the fleet's operator snapshot (merged into /v1/stats).
type Stats struct {
	Self              string `json:"self"`
	Peers             int    `json:"peers"`
	Alive             int    `json:"alive"`
	Suspect           int    `json:"suspect"`
	Dead              int    `json:"dead"`
	LogLen            int    `json:"logLen"`
	SyncRounds        int64  `json:"syncRounds"`
	SyncFailures      int64  `json:"syncFailures"` // failed exchanges, not counting probes of peers already dead
	RecordsShipped    int64  `json:"recordsShipped"`
	RecordsApplied    int64  `json:"recordsApplied"`
	RecordsDuplicate  int64  `json:"recordsDuplicate"`
	RoundsSinceChange int64  `json:"roundsSinceChange"`
}

// Fleet is one daemon's peer subsystem: membership, the replicated log, and
// the background anti-entropy loop.
type Fleet struct {
	cfg     Config
	store   *Store
	members *membership

	syncRounds       atomic.Int64
	syncFailures     atomic.Int64
	recordsShipped   atomic.Int64
	recordsApplied   atomic.Int64
	recordsDuplicate atomic.Int64
	// lastChangeRound is the sync-round index of the last applied or shipped
	// record; the distance to syncRounds is the convergence signal /v1/stats
	// reports.
	lastChangeRound atomic.Int64

	started atomic.Bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a fleet peer. Loops do not run until Start.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	return &Fleet{
		cfg:     cfg,
		store:   NewStore(cfg.Self),
		members: newMembership(cfg.Self, cfg.Peers, time.Now),
	}
}

// Self returns the advertised address.
func (f *Fleet) Self() string { return f.cfg.Self }

// Peers returns the operator view of the peer set.
func (f *Fleet) Peers() []PeerInfo { return f.members.snapshot() }

// Record replicates a locally learned signature: appends it to the log under
// this daemon's origin; the next anti-entropy round ships it. The caller
// records only what its database accepted as new.
func (f *Fleet) Record(workload, node, problem, tuple string) {
	if _, ok := f.store.Append(workload, node, problem, tuple); ok {
		f.lastChangeRound.Store(f.syncRounds.Load())
	}
}

// Stats snapshots the fleet counters.
func (f *Fleet) Stats() Stats {
	alive, suspect, dead := f.members.counts()
	rounds := f.syncRounds.Load()
	return Stats{
		Self:              f.cfg.Self,
		Peers:             alive + suspect + dead,
		Alive:             alive,
		Suspect:           suspect,
		Dead:              dead,
		LogLen:            f.store.Len(),
		SyncRounds:        rounds,
		SyncFailures:      f.syncFailures.Load(),
		RecordsShipped:    f.recordsShipped.Load(),
		RecordsApplied:    f.recordsApplied.Load(),
		RecordsDuplicate:  f.recordsDuplicate.Load(),
		RoundsSinceChange: rounds - f.lastChangeRound.Load(),
	}
}

// Start launches the anti-entropy loop. Idempotent.
func (f *Fleet) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go f.syncLoop(ctx)
}

// Stop halts the loop and flushes pending deltas: one final push-pull with
// every reachable peer inside ctx's budget, so signatures this daemon
// learned but had not yet gossiped survive its exit. Safe to call without
// Start.
func (f *Fleet) Stop(ctx context.Context) {
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	f.SyncRound(ctx)
}

// SyncRound performs one push-pull exchange with every known peer — the
// periodic anti-entropy step, the liveness probe and the drain-time delta
// flush, also how tests step replication deterministically. Alive and
// suspect peers go one after another, so what one ships reaches the next in
// the same round. Dead peers are probed alongside, all at once and each
// within half a sync interval: refusing or hanging, they add at most that.
func (f *Fleet) SyncRound(ctx context.Context) {
	round := f.syncRounds.Add(1)
	live, dead := f.members.targets()
	var probes sync.WaitGroup
	for _, addr := range dead {
		probes.Add(1)
		go func() {
			defer probes.Done()
			pctx, cancel := context.WithTimeout(ctx, f.cfg.SyncInterval/2)
			defer cancel()
			f.syncPeer(pctx, round, addr)
		}()
	}
	for _, addr := range live {
		if ctx.Err() != nil {
			break
		}
		f.syncPeer(ctx, round, addr)
	}
	probes.Wait()
}

// syncPeer runs one push-pull exchange with addr: send our vector, apply
// what we were missing, then push what the peer's returned vector shows it
// is missing. A record moving either way marks round as the last change.
func (f *Fleet) syncPeer(ctx context.Context, round int64, addr string) {
	req := syncRequest{From: f.cfg.Self, Vector: f.store.Vector()}
	var resp syncResponse
	if err := f.post(ctx, addr, "/sync", req, &resp); err != nil {
		st, changed := f.members.fail(addr, err)
		if changed {
			f.cfg.Logf("fleet: peer %s %s: %v", addr, st, err)
		}
		if st != Dead || changed { // a failed probe of a dead peer is no exchange error
			f.syncFailures.Add(1)
		}
		return
	}
	f.seen(addr)
	if f.apply(resp.Records) > 0 {
		f.lastChangeRound.Store(round)
	}
	missing := f.store.Missing(resp.Vector)
	if len(missing) > 0 {
		push := pushRequest{From: f.cfg.Self, Records: missing}
		if err := f.post(ctx, addr, "/push", push, nil); err != nil {
			f.syncFailures.Add(1)
			f.cfg.Logf("fleet: pushing %d records to %s: %v", len(missing), addr, err)
		} else {
			f.recordsShipped.Add(int64(len(missing)))
			f.lastChangeRound.Store(round)
		}
	}
}

// apply merges received records into the log and installs the fresh ones
// into the live signature database, whose merge is the one content dedup: a
// record it already holds counts as a duplicate. Returns how many records
// were new to the log (content duplicates included — they still advance the
// clocks).
func (f *Fleet) apply(recs []Record) int {
	if len(recs) == 0 {
		return 0
	}
	fresh := f.store.Apply(recs)
	for _, r := range fresh {
		if f.cfg.Apply(r) {
			f.recordsApplied.Add(1)
		} else {
			f.recordsDuplicate.Add(1)
		}
	}
	return len(fresh)
}

// seen records a successful contact with addr, logging it when it changed
// the peer's state (first sight or resurrection).
func (f *Fleet) seen(addr string) {
	if f.members.observe(addr) {
		f.cfg.Logf("fleet: peer %s alive", addr)
	}
}

// syncLoop runs anti-entropy rounds, waiting an interval drawn uniformly
// from [d/2, 3d/2) before each — jitter that decorrelates peers booted
// together, so their rounds do not thunder in phase. The jitter stream
// derives from the daemon's address, so such peers draw different intervals.
func (f *Fleet) syncLoop(ctx context.Context) {
	defer f.wg.Done()
	h := fnv.New64a()
	h.Write([]byte(f.cfg.Self + "/sync"))
	rng := stats.NewRNG(int64(h.Sum64()))
	d := f.cfg.SyncInterval
	for {
		t := time.NewTimer(d/2 + time.Duration(rng.Float64()*float64(d)))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
			f.SyncRound(ctx)
		}
	}
}
