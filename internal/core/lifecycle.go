package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"invarnetx/internal/invariant"
	"invarnetx/internal/mic"
	"invarnetx/internal/xmlstore"
)

// This file is the drift-aware invariant lifecycle: the layer that keeps a
// long-running deployment's model healthy under nonstationarity instead of
// trusting the train-once snapshot forever.
//
// Per profile, every diagnosed window feeds the per-edge health series
// (invariant.Health): a CUSUM change-point test over each edge's violation
// indicator separates the persistent violation-rate shift of a *drifted*
// edge from the short bursts a genuine fault produces. A drifted edge
// degrades to quarantined — reported unknown to the diagnosis layer, so it
// can never appear in Violated, Hints or signature matching — but keeps
// being observed. Each quarantined edge re-estimates its baseline through
// an exponentially-decayed mean of the exact scores of later clean windows
// (mic.Decayed); the re-estimated baselines form a *shadow model generation*
// evaluated side-by-side against the live one on the same windows, and
// promoted only when its false-positive rate beats the incumbent's. Promotion installs a
// fresh invariant.Set — the report cache invalidates for free, set identity
// being part of its key — and bumps the profile's generation; the whole state
// machine is persisted in the profile's one store file beside the set it
// describes, so a restart mid-promotion comes back to a consistent
// generation (see lifecycleSection).

// LifecycleConfig parameterises the drift-aware invariant lifecycle. The
// zero value disables it (train-once behaviour, bit-identical to builds
// without the lifecycle layer); with Enabled set, zero-valued fields take
// the documented defaults.
type LifecycleConfig struct {
	// Enabled turns the lifecycle on for every profile of the system.
	Enabled bool
	// MinObservations is how many windows an edge must be observed before
	// it may be quarantined (default 8).
	MinObservations int
	// Drift is the tolerated per-window violation rate; the change-point
	// accumulator only collects the excess above it (default 0.1).
	Drift float64
	// Threshold is the change-point alarm level (default 4): an edge
	// violating every window quarantines in ~5 windows, while a short
	// fault burst drains back out.
	Threshold float64
	// DecayAlpha is the newest-score weight of the shadow re-estimation
	// (default mic.DefaultDecayAlpha).
	DecayAlpha float64
	// ShadowMinEvals is how many side-by-side evaluations every shadow
	// candidate needs before a promotion verdict (default 8).
	ShadowMinEvals int
	// ShadowMaxEvals bounds a candidate's evaluation budget: a candidate
	// that cannot qualify within it is rolled back and re-estimation
	// starts over (default 64).
	ShadowMaxEvals int
	// PromoteMaxRate is the highest shadow false-positive rate (violations
	// per evaluated window) a promotable generation may show (default
	// 0.125); it must also beat the incumbent's rate over the same
	// windows.
	PromoteMaxRate float64
}

func (c LifecycleConfig) withDefaults() LifecycleConfig {
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.Drift <= 0 {
		c.Drift = 0.1
	}
	if c.Threshold <= 0 {
		c.Threshold = 4
	}
	if c.DecayAlpha <= 0 {
		c.DecayAlpha = mic.DefaultDecayAlpha
	}
	if c.ShadowMinEvals <= 0 {
		c.ShadowMinEvals = 8
	}
	if c.ShadowMaxEvals <= 0 {
		c.ShadowMaxEvals = 64
	}
	if c.ShadowMaxEvals < c.ShadowMinEvals {
		c.ShadowMaxEvals = c.ShadowMinEvals
	}
	if c.PromoteMaxRate <= 0 {
		c.PromoteMaxRate = 0.125
	}
	return c
}

// validate rejects nonsensical lifecycle parameters (see Config.Validate);
// zero values are fine — they select defaults.
func (c LifecycleConfig) validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) || v < 0 }
	switch {
	case bad(c.Drift) || c.Drift > 1:
		return fmt.Errorf("core: Lifecycle.Drift %v outside [0,1] (tolerated violation rate)", c.Drift)
	case bad(c.Threshold):
		return fmt.Errorf("core: Lifecycle.Threshold %v is not a usable alarm level", c.Threshold)
	case bad(c.DecayAlpha) || c.DecayAlpha > 1:
		return fmt.Errorf("core: Lifecycle.DecayAlpha %v outside [0,1]", c.DecayAlpha)
	case bad(c.PromoteMaxRate) || c.PromoteMaxRate > 1:
		return fmt.Errorf("core: Lifecycle.PromoteMaxRate %v outside [0,1]", c.PromoteMaxRate)
	case c.MinObservations < 0 || c.ShadowMinEvals < 0 || c.ShadowMaxEvals < 0:
		return fmt.Errorf("core: negative lifecycle observation bounds")
	}
	return nil
}

// shadowWarmup is how many scores a shadow candidate absorbs before its
// side-by-side evaluation starts: the first estimates are too raw to judge.
const shadowWarmup = 3

// shadowEdge is the re-estimation state of one quarantined edge: the
// decayed candidate baseline plus the side-by-side tally of how often the
// candidate and the incumbent baseline each called a later window violated.
type shadowEdge struct {
	est        *mic.Decayed
	evals      int
	shadowViol int
	liveViol   int
}

// lifecycle is one profile's drift-lifecycle state. The epoch counter is
// read on the diagnosis hot path (it is part of the report-cache key) and
// therefore atomic; everything else is guarded by mu, which is never held
// while taking the profile lock (see Profile.lifecyclePost for the ordering).
type lifecycle struct {
	cfg LifecycleConfig

	epoch      atomic.Uint64
	promotions atomic.Int64
	rollbacks  atomic.Int64

	mu       sync.Mutex
	set      *invariant.Set
	health   *invariant.Health
	gen      uint64
	shadow   map[int]*shadowEdge // by sorted-pair index into set
	observed int64
}

func newLifecycle(cfg LifecycleConfig) *lifecycle {
	return &lifecycle{cfg: cfg.withDefaults()}
}

func (l *lifecycle) healthConfig() invariant.HealthConfig {
	return invariant.HealthConfig{
		MinObservations: l.cfg.MinObservations,
		Drift:           l.cfg.Drift,
		Threshold:       l.cfg.Threshold,
	}
}

// install points the lifecycle at a newly trained or loaded live set:
// next generation, fresh health, no shadow. Called after the profile lock
// is released, never under it.
func (l *lifecycle) install(set *invariant.Set) {
	l.mu.Lock()
	l.set = set
	l.health = invariant.NewHealth(set, l.healthConfig())
	l.shadow = nil
	l.gen++
	l.mu.Unlock()
	l.epoch.Add(1)
}

// observe feeds one window's raw edge verdicts (pre-quarantine, so
// quarantined edges keep being observed) computed against set. It returns
// the quarantine mask the window's report must apply — nil when every edge
// is live — and, when this window completed a qualifying evaluation round,
// the promoted set the caller must install as the live generation.
//
// score supplies a pair's exact association score for shadow
// re-estimation; a nil score (degraded window, no whole-window scores at
// hand) observes health only. Windows computed against a set the lifecycle
// no longer tracks (a promotion or retrain won the race) carry stale
// verdicts and are discarded entirely.
func (l *lifecycle) observe(set *invariant.Set, raw, known []bool, score func(invariant.Pair) float64, epsilon float64) (qmask []bool, promoted *invariant.Set) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.set != set || l.health == nil {
		return nil, nil
	}
	l.observed++
	drifted, err := l.health.Observe(raw, known)
	if err != nil {
		// Shape mismatches cannot happen for the tracked set; fail safe by
		// masking nothing new.
		return l.health.Quarantined(), nil
	}
	if len(drifted) > 0 {
		if l.shadow == nil {
			l.shadow = make(map[int]*shadowEdge)
		}
		for _, k := range drifted {
			l.shadow[k] = &shadowEdge{est: mic.NewDecayed(l.cfg.DecayAlpha)}
		}
		// The verdict surface changed: reports cached under the previous
		// epoch must not be served again.
		l.epoch.Add(1)
	}
	if score != nil {
		pairs := set.SortedPairs()
		for k, sh := range l.shadow {
			s := score(pairs[k])
			// Judge the candidate on the new window *before* folding the
			// window's score into it — an unbiased side-by-side evaluation.
			if est, warmed := sh.est.Value(); warmed && sh.est.N() >= shadowWarmup {
				sh.evals++
				if invariant.Violated(est, s, epsilon) {
					sh.shadowViol++
				}
				if raw[k] {
					sh.liveViol++
				}
			}
			sh.est.Add(s)
		}
	}
	qmask = l.health.Quarantined()
	promoted = l.maybePromoteLocked()
	return qmask, promoted
}

// maybePromoteLocked decides the shadow generation's fate once every
// candidate has its evaluation quota. Promotion requires the aggregate
// shadow false-positive rate to sit under PromoteMaxRate *and* strictly
// beat the incumbent's rate over the same windows; candidates that exhaust
// ShadowMaxEvals without qualifying are rolled back (re-estimation starts
// over). Caller holds l.mu.
func (l *lifecycle) maybePromoteLocked() *invariant.Set {
	if len(l.shadow) == 0 {
		return nil
	}
	ready := true
	totEvals, totShadow, totLive := 0, 0, 0
	for _, sh := range l.shadow {
		totEvals += sh.evals
		totShadow += sh.shadowViol
		totLive += sh.liveViol
		if sh.evals < l.cfg.ShadowMinEvals {
			ready = false
		}
	}
	if ready && totEvals > 0 {
		shadowRate := float64(totShadow) / float64(totEvals)
		liveRate := float64(totLive) / float64(totEvals)
		if shadowRate <= l.cfg.PromoteMaxRate && shadowRate < liveRate {
			base := make(map[invariant.Pair]float64, len(l.set.Base))
			for p, v := range l.set.Base {
				base[p] = v
			}
			pairs := l.set.SortedPairs()
			for k, sh := range l.shadow {
				if v, ok := sh.est.Value(); ok {
					base[pairs[k]] = v
				}
			}
			next := invariant.NewSet(l.set.M, base)
			l.set = next
			l.health = invariant.NewHealth(next, l.healthConfig())
			l.shadow = nil
			l.gen++
			l.promotions.Add(1)
			l.epoch.Add(1)
			return next
		}
	}
	for _, sh := range l.shadow {
		if sh.evals >= l.cfg.ShadowMaxEvals {
			sh.est.Reset()
			sh.evals, sh.shadowViol, sh.liveViol = 0, 0, 0
			l.rollbacks.Add(1)
		}
	}
	return nil
}

// lifecyclePost runs the lifecycle over one freshly computed window: health
// observation on the raw verdicts, shadow re-estimation, possibly a
// generation promotion, then quarantine masking. It returns the tuple and
// known mask the report must surface — quarantined edges become *unknown*
// (neither holding nor violated), so no spurious fault report can ever be
// attributed to them. With the lifecycle disabled it returns its inputs
// untouched.
func (p *Profile) lifecyclePost(set *invariant.Set, raw, known []bool, score func(invariant.Pair) float64) ([]bool, []bool) {
	l := p.lc
	if l == nil {
		return raw, known
	}
	qmask, promoted := l.observe(set, raw, known, score, p.sys.cfg.Epsilon)
	if promoted != nil {
		// The diagnosis that triggered the promotion still reports against
		// the set it was computed with; only later windows see the new
		// generation. l.mu is not held here (lock ordering: never l.mu
		// then p.mu while a holder of p.mu may want l.mu).
		p.mu.Lock()
		p.invariants = promoted
		p.mu.Unlock()
	}
	if qmask == nil {
		return raw, known
	}
	if known == nil {
		known = make([]bool, len(raw))
		for k := range known {
			known[k] = true
		}
	}
	for k, q := range qmask {
		if q {
			known[k] = false
			raw[k] = false
		}
	}
	return raw, known
}

// LifecycleStats is an operator-facing snapshot of one profile's drift-
// lifecycle state (or, inside a ProfileStats sum, of a group's).
type LifecycleStats struct {
	// Enabled reports whether the lifecycle is active.
	Enabled bool
	// Generation is the live model generation: 0 before any invariants
	// exist, then incremented by every training, load and shadow promotion
	// (the max across profiles in a sum).
	Generation uint64
	// Edges is the tracked edge count; Quarantined of them are drifted.
	Edges, Quarantined int
	// ShadowAge is the oldest active shadow candidate's side-by-side
	// evaluation count — how close the next generation is to a verdict.
	ShadowAge int
	// Observed counts diagnosed windows fed to health tracking.
	Observed int64
	// Promotions and Rollbacks count shadow generations accepted and
	// discarded.
	Promotions, Rollbacks int64
}

// LifecycleStats snapshots the profile's drift-lifecycle state; the zero
// value when the lifecycle is disabled.
func (p *Profile) LifecycleStats() LifecycleStats {
	l := p.lc
	if l == nil {
		return LifecycleStats{}
	}
	st := LifecycleStats{
		Enabled:    true,
		Promotions: l.promotions.Load(),
		Rollbacks:  l.rollbacks.Load(),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st.Generation = l.gen
	st.Observed = l.observed
	if l.set != nil {
		st.Edges = l.set.Len()
	}
	if l.health != nil {
		st.Quarantined = l.health.QuarantinedCount()
	}
	for _, sh := range l.shadow {
		if sh.evals > st.ShadowAge {
			st.ShadowAge = sh.evals
		}
	}
	return st
}

// LifecycleEdges returns the per-edge health series of the live generation
// in sorted-pair order (nil when the lifecycle is disabled or untrained).
func (p *Profile) LifecycleEdges() []invariant.EdgeHealth {
	l := p.lc
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.health == nil {
		return nil
	}
	return l.health.Snapshot()
}

// lifecycleSection snapshots the lifecycle for a profile file whose
// invariant section is set (nil when the lifecycle is off or has no set).
// Edge health and shadow state are saved only when set is the lifecycle's
// own live set; when a promotion or retrain raced the save, the counters
// alone are, and set restores with fresh edge state — one consistent
// generation either way.
func (p *Profile) lifecycleSection(set *invariant.Set) *xmlstore.LifecycleFile {
	l := p.lc
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.set == nil || l.health == nil {
		return nil
	}
	f := &xmlstore.LifecycleFile{
		Generation: l.gen,
		Observed:   l.observed,
		Promotions: l.promotions.Load(),
		Rollbacks:  l.rollbacks.Load(),
	}
	if l.set != set {
		return f
	}
	for k, e := range l.health.Snapshot() {
		le := xmlstore.LifecycleEdge{
			I: e.Pair.I, J: e.Pair.J,
			State: e.State.String(),
			Obs:   e.Obs, Viol: e.Viol,
			Rate: e.Rate, Score: e.Score,
		}
		if sh := l.shadow[k]; sh != nil {
			if v, ok := sh.est.Value(); ok {
				le.ShadowBase = v
				le.ShadowN = sh.est.N()
			}
			le.ShadowEvals = sh.evals
			le.ShadowViol = sh.shadowViol
			le.LiveViol = sh.liveViol
		}
		f.Edges = append(f.Edges, le)
	}
	return f
}

// restoredLifecycle rebuilds a saved lifecycle section over set, the
// invariant set saved beside it, into a lifecycle nothing else can see yet:
// every edge is checked against set before any of the state is installed.
func restoredLifecycle(cfg LifecycleConfig, set *invariant.Set, f *xmlstore.LifecycleFile) (*lifecycle, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, errors.New("core: lifecycle state has no invariants to attach to")
	}
	l := newLifecycle(cfg)
	l.set, l.health = set, invariant.NewHealth(set, l.healthConfig())
	l.gen, l.observed = f.Generation, f.Observed
	l.promotions.Store(f.Promotions)
	l.rollbacks.Store(f.Rollbacks)
	for _, e := range f.Edges {
		st, err := invariant.ParseEdgeState(e.State)
		if err != nil {
			return nil, err
		}
		eh := invariant.EdgeHealth{
			Pair:  invariant.Pair{I: e.I, J: e.J},
			State: st,
			Obs:   e.Obs, Viol: e.Viol,
			Rate: e.Rate, Score: e.Score,
		}
		k, err := l.health.Restore(eh)
		if err != nil {
			return nil, err
		}
		if st == invariant.EdgeQuarantined {
			sh := &shadowEdge{
				est:        mic.NewDecayed(l.cfg.DecayAlpha),
				evals:      e.ShadowEvals,
				shadowViol: e.ShadowViol,
				liveViol:   e.LiveViol,
			}
			sh.est.Restore(e.ShadowBase, e.ShadowN)
			if l.shadow == nil {
				l.shadow = make(map[int]*shadowEdge)
			}
			l.shadow[k] = sh
		}
	}
	return l, nil
}

// adopt installs a restored lifecycle's state as l's live generation.
func (l *lifecycle) adopt(r *lifecycle) {
	l.mu.Lock()
	l.set, l.health, l.shadow = r.set, r.health, r.shadow
	l.gen, l.observed = r.gen, r.observed
	l.mu.Unlock()
	l.promotions.Store(r.promotions.Load())
	l.rollbacks.Store(r.rollbacks.Load())
	l.epoch.Add(1)
}
