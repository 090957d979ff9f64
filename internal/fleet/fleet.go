// Package fleet federates invarnetd daemons into one diagnosis fleet: a
// fault signature learned on any peer becomes recognizable everywhere,
// without a coordinator and without one-shot exports.
//
// Two layers, smallest-first:
//
//   - membership: static bootstrap (-peers) plus heartbeat liveness with a
//     suspect/dead state machine and jittered probe intervals. Dead peers
//     leave gossip but keep being probed, so a restart rejoins.
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

// Defaults for the federation knobs.
const (
	DefaultHeartbeat    = 1 * time.Second
	DefaultSyncInterval = 2 * time.Second
	DefaultSuspectAfter = 2
)

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
	// Heartbeat is the liveness probe interval (jittered ±50%).
	Heartbeat time.Duration
	// SyncInterval is the anti-entropy round interval (jittered ±50%).
	SyncInterval time.Duration
	// SuspectAfter / DeadAfter are the consecutive-miss thresholds of the
	// liveness state machine.
	SuspectAfter int
	DeadAfter    int
	// Apply installs one replicated signature into the local system,
	// reporting whether it was new there. Set by the serving layer.
	Apply func(Record) bool
	// Logf, when set, receives membership transitions and sync errors.
	Logf func(format string, args ...any)
}

// withDefaults normalises the knobs.
func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.SyncInterval <= 0 {
		c.SyncInterval = DefaultSyncInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 3
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
	SyncFailures      int64  `json:"syncFailures"`
	RecordsShipped    int64  `json:"recordsShipped"`
	RecordsApplied    int64  `json:"recordsApplied"`
	RecordsDuplicate  int64  `json:"recordsDuplicate"`
	RoundsSinceChange int64  `json:"roundsSinceChange"`
}

// Fleet is one daemon's peer subsystem: membership, the replicated log, and
// the background heartbeat and anti-entropy loops.
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
	// record; the distance to syncRounds is the convergence signal the smoke
	// harness and /v1/stats report.
	lastChangeRound atomic.Int64

	started atomic.Bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// New builds a fleet peer. Loops do not run until Start.
func New(cfg Config) *Fleet {
	cfg = cfg.withDefaults()
	f := &Fleet{
		cfg:     cfg,
		store:   NewStore(cfg.Self),
		members: newMembership(cfg.Self, cfg.Peers, cfg.SuspectAfter, cfg.DeadAfter, time.Now),
	}
	return f
}

// Store exposes the replicated log (persistence and tests).
func (f *Fleet) Store() *Store { return f.store }

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

// Start launches the heartbeat and anti-entropy loops. Idempotent.
func (f *Fleet) Start() {
	if !f.started.CompareAndSwap(false, true) {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(2)
	go f.heartbeatLoop(ctx)
	go f.syncLoop(ctx)
}

// Stop halts the loops and flushes pending deltas: one final push-pull with
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

// SyncRound performs one full push-pull exchange with every gossip target —
// the periodic anti-entropy step and the drain-time delta flush, also how
// tests and the smoke harness step replication deterministically.
// Exchanges run sequentially — fleets are small and rounds are frequent;
// bounded wall-clock per round comes from the per-RPC timeout.
func (f *Fleet) SyncRound(ctx context.Context) {
	round := f.syncRounds.Add(1)
	for _, addr := range f.members.gossipTargets() {
		if ctx.Err() != nil {
			return
		}
		if changed := f.syncPeer(ctx, addr); changed {
			f.lastChangeRound.Store(round)
		}
	}
}

// syncPeer runs one push-pull exchange with addr: send our vector, apply
// what we were missing, then push what the peer's returned vector shows it
// is missing. Reports whether any record moved in either direction.
func (f *Fleet) syncPeer(ctx context.Context, addr string) (changed bool) {
	req := syncRequest{From: f.cfg.Self, Vector: f.store.Vector()}
	var resp syncResponse
	if err := f.post(ctx, addr, "/sync", req, &resp); err != nil {
		f.syncFailures.Add(1)
		if st, _ := f.members.fail(addr, err); st != Alive {
			f.cfg.Logf("fleet: peer %s %s: %v", addr, st, err)
		}
		return false
	}
	f.members.observe(addr)
	if n := f.apply(resp.Records); n > 0 {
		changed = true
	}
	missing := f.store.Missing(resp.Vector)
	if len(missing) > 0 {
		push := pushRequest{From: f.cfg.Self, Records: missing}
		if err := f.post(ctx, addr, "/push", push, nil); err != nil {
			f.syncFailures.Add(1)
			f.cfg.Logf("fleet: pushing %d records to %s: %v", len(missing), addr, err)
		} else {
			f.recordsShipped.Add(int64(len(missing)))
			changed = true
		}
	}
	return changed
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

// InstallRestored replays records recovered from the persisted fleet file
// into the live signature database (the profile files usually already hold
// them; Apply is idempotent either way).
func (f *Fleet) InstallRestored(recs []Record) {
	for _, r := range recs {
		f.cfg.Apply(r)
	}
}

// heartbeatLoop probes every known peer (dead included, so restarts rejoin)
// at the jittered heartbeat interval.
func (f *Fleet) heartbeatLoop(ctx context.Context) {
	defer f.wg.Done()
	rng := stats.NewRNG(jitterSeed(f.cfg.Self, "heartbeat"))
	for sleepJittered(ctx, f.cfg.Heartbeat, rng) {
		for _, addr := range f.members.probeTargets() {
			if ctx.Err() != nil {
				return
			}
			f.ping(ctx, addr)
		}
	}
}

// ping probes one peer and advances its liveness state.
func (f *Fleet) ping(ctx context.Context, addr string) {
	var resp pingResponse
	if err := f.post(ctx, addr, "/ping", pingRequest{From: f.cfg.Self}, &resp); err != nil {
		if st, changed := f.members.fail(addr, err); changed {
			f.cfg.Logf("fleet: peer %s %s: %v", addr, st, err)
		}
		return
	}
	if f.members.observe(addr) {
		f.cfg.Logf("fleet: peer %s alive", addr)
	}
}

// syncLoop runs anti-entropy rounds at the jittered sync interval.
func (f *Fleet) syncLoop(ctx context.Context) {
	defer f.wg.Done()
	rng := stats.NewRNG(jitterSeed(f.cfg.Self, "sync"))
	for sleepJittered(ctx, f.cfg.SyncInterval, rng) {
		f.SyncRound(ctx)
	}
}

// jitterSeed derives one loop's jitter stream from the daemon's address, so
// peers booted together draw different intervals.
func jitterSeed(self, loop string) int64 {
	h := fnv.New64a()
	h.Write([]byte(self + "/" + loop))
	return int64(h.Sum64())
}

// sleepJittered waits one interval drawn uniformly from [d/2, 3d/2) — the
// jitter that decorrelates peers booted together, so heartbeats and sync
// rounds do not thunder in phase. Returns false when ctx ended.
func sleepJittered(ctx context.Context, d time.Duration, rng *stats.RNG) bool {
	j := d/2 + time.Duration(rng.Float64()*float64(d))
	t := time.NewTimer(j)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
