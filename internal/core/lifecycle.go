package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"invarnetx/internal/invariant"
	"invarnetx/internal/xmlstore"
)

// This file is the drift-aware invariant lifecycle: the layer that keeps a
// long-running deployment's model healthy under nonstationarity instead of
// trusting the train-once snapshot forever. It is one module — edge health,
// change-point test, shadow re-estimation, promotion and the persisted
// snapshot — over one flat record per trained edge, so the feature can be
// measured, or removed, as one thing.
//
// Per profile, every diagnosed window feeds each edge's health series: a
// one-sided CUSUM over the edge's violation indicator separates the
// persistent violation-rate shift of a *drifted* edge from the short bursts
// a genuine fault produces. A drifted edge degrades to quarantined — reported
// unknown to the diagnosis layer, so it can never appear in Violated, Hints
// or signature matching — but keeps being observed. Each quarantined edge
// re-estimates its baseline through an exponentially-decayed mean of the
// exact scores of later clean windows; the re-estimated baselines form a
// *shadow model generation* evaluated side-by-side against the live one on
// the same windows, and promoted only when its false-positive rate beats the
// incumbent's. Promotion installs a fresh invariant.Set — the report cache
// invalidates for free, set identity being part of its key — and bumps the
// profile's generation; the whole state machine is persisted in the
// profile's one store file beside the set it describes, so a restart
// mid-promotion comes back to a consistent generation (see
// lifecycleSection).

// tuning parameterises the lifecycle's state machine.
type tuning struct {
	// minObservations is how many windows an edge must be observed before
	// it may be quarantined.
	minObservations int64
	// drift is the tolerated per-window violation rate; the change-point
	// accumulator only collects the excess above it.
	drift float64
	// threshold is the change-point alarm level.
	threshold float64
	// decayAlpha is the newest-score weight of the shadow re-estimation.
	decayAlpha float64
	// shadowMinEvals is how many side-by-side evaluations every shadow
	// candidate needs before a promotion verdict; shadowMaxEvals bounds a
	// candidate's evaluation budget: a candidate that cannot qualify within
	// it is rolled back and re-estimation starts over.
	shadowMinEvals, shadowMaxEvals int
	// promoteMaxRate is the highest shadow false-positive rate (violations
	// per evaluated window) a promotable generation may show; it must also
	// beat the incumbent's rate over the same windows.
	promoteMaxRate float64
}

// lifecycleTuning is the one tuning every lifecycle runs, the one the drift
// study (cmd/experiments -run drift) measures: an edge violating every window
// quarantines in ~4 windows while one-window fault bursts drain back out,
// and a shadow score carries an effective memory of about three windows.
// core's tests swap in faster tunings; nothing else writes it, and every
// lifecycle reads it where it decides.
var lifecycleTuning = tuning{
	minObservations: 8,
	drift:           0.25,
	threshold:       2.5,
	decayAlpha:      0.3,
	shadowMinEvals:  8,
	shadowMaxEvals:  64,
	promoteMaxRate:  0.3,
}

const (
	// rateAlpha is the EWMA weight of an edge's reported violation rate —
	// observability only, not part of any verdict.
	rateAlpha = 0.1
	// shadowWarmup is how many scores a shadow candidate absorbs before its
	// side-by-side evaluation starts: the first estimates are too raw to
	// judge.
	shadowWarmup = 3
)

// edge is the lifecycle record of one trained edge, indexed like the live
// set's SortedPairs (the violation-tuple coordinates).
type edge struct {
	quarantined bool
	// The health series: windows observed, violations among them, the EWMA
	// violation rate and the one-sided CUSUM sum — the violation indicator's
	// accumulated excess over the tolerated drift, clamped at zero.
	obs, viol int64
	rate, sum float64
	// The shadow candidate, zero unless quarantined: the decayed mean num/den
	// of the n exact scores absorbed so far (bias-corrected — the first score
	// comes back exactly, not alpha·score), and the side-by-side tally of how
	// often the candidate and the incumbent baseline each called a later
	// window violated.
	num, den             float64
	n                    int64
	evals                int
	shadowViol, liveViol int
}

// shadow returns the candidate baseline and whether any score was absorbed.
func (e *edge) shadow() (float64, bool) {
	if e.den == 0 {
		return 0, false
	}
	return e.num / e.den, true
}

// lifecycle is one profile's drift-lifecycle state. The epoch counter is
// read on the diagnosis hot path (it is part of the report-cache key) and
// therefore atomic; everything else is guarded by mu, which is never held
// while taking the profile lock (see Profile.lifecyclePost for the ordering).
type lifecycle struct {
	epoch      atomic.Uint64
	promotions atomic.Int64
	rollbacks  atomic.Int64

	mu       sync.Mutex
	set      *invariant.Set
	edges    []edge // by sorted-pair index into set
	gen      uint64
	observed int64
}

// resetLocked makes set the next live generation, every edge live and
// without a shadow. Caller holds l.mu.
func (l *lifecycle) resetLocked(set *invariant.Set) {
	l.set = set
	l.edges = make([]edge, set.Len())
	l.gen++
}

// install points the lifecycle at a newly trained or loaded live set.
// Called after the profile lock is released, never under it.
func (l *lifecycle) install(set *invariant.Set) {
	l.mu.Lock()
	l.resetLocked(set)
	l.mu.Unlock()
	l.epoch.Add(1)
}

// observe feeds one window's raw edge verdicts (pre-quarantine, so
// quarantined edges keep being observed; known nil = every edge checkable)
// computed against set. It returns the quarantine mask the window's report
// must apply — nil when every edge is live — and, when this window completed
// a qualifying evaluation round, the promoted set the caller must install as
// the live generation.
//
// scores are the window's exact association scores in SortedPairs order,
// for shadow re-estimation; nil scores (degraded window, no whole-window
// scores at hand) observe health only. Windows computed against a set the
// lifecycle no longer tracks (a promotion or retrain won the race) carry
// stale verdicts and are discarded entirely.
func (l *lifecycle) observe(set *invariant.Set, raw, known []bool, scores []float64, epsilon float64) (qmask []bool, promoted *invariant.Set) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.set != set {
		return nil, nil
	}
	l.observed++
	drifted := false
	for k := range l.edges {
		e := &l.edges[k]
		if known != nil && !known[k] {
			continue // unknown: the window carries no information on this edge
		}
		e.obs++
		x := 0.0
		if raw[k] {
			x = 1.0
			e.viol++
		}
		e.rate += rateAlpha * (x - e.rate)
		e.sum += x - lifecycleTuning.drift
		if e.sum < 0 {
			e.sum = 0
		}
		// The sum keeps integrating past the threshold; only a live edge
		// with enough observations behind it changes state.
		if !e.quarantined && e.sum > lifecycleTuning.threshold && e.obs >= lifecycleTuning.minObservations {
			e.quarantined = true
			drifted = true
		}
	}
	if drifted {
		// The verdict surface changed: reports cached under the previous
		// epoch must not be served again.
		l.epoch.Add(1)
	}
	if scores != nil {
		a := lifecycleTuning.decayAlpha
		for k := range l.edges {
			e := &l.edges[k]
			if !e.quarantined {
				continue
			}
			s := scores[k]
			// Judge the candidate on the new window *before* folding the
			// window's score into it — an unbiased side-by-side evaluation.
			if est, warmed := e.shadow(); warmed && e.n >= shadowWarmup {
				e.evals++
				if invariant.Violated(est, s, epsilon) {
					e.shadowViol++
				}
				if raw[k] {
					e.liveViol++
				}
			}
			// A custom Assoc may return a non-finite score; a degenerate
			// window must not poison the candidate baseline.
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				e.num = (1-a)*e.num + a*s
				e.den = (1-a)*e.den + a
				e.n++
			}
		}
	}
	for k := range l.edges {
		if l.edges[k].quarantined {
			if qmask == nil {
				qmask = make([]bool, len(l.edges))
			}
			qmask[k] = true
		}
	}
	return qmask, l.maybePromoteLocked()
}

// maybePromoteLocked decides the shadow generation's fate once every
// candidate has its evaluation quota. Promotion requires the aggregate
// shadow false-positive rate to sit under promoteMaxRate *and* strictly
// beat the incumbent's rate over the same windows; candidates that exhaust
// shadowMaxEvals without qualifying are rolled back (re-estimation starts
// over). Caller holds l.mu.
func (l *lifecycle) maybePromoteLocked() *invariant.Set {
	candidates := 0
	totEvals, totShadow, totLive := 0, 0, 0
	ready := true
	for k := range l.edges {
		e := &l.edges[k]
		if !e.quarantined {
			continue
		}
		candidates++
		totEvals += e.evals
		totShadow += e.shadowViol
		totLive += e.liveViol
		if e.evals < lifecycleTuning.shadowMinEvals {
			ready = false
		}
	}
	if candidates == 0 {
		return nil
	}
	if ready && totEvals > 0 {
		shadowRate := float64(totShadow) / float64(totEvals)
		liveRate := float64(totLive) / float64(totEvals)
		if shadowRate <= lifecycleTuning.promoteMaxRate && shadowRate < liveRate {
			base := make(map[invariant.Pair]float64, len(l.set.Base))
			for p, v := range l.set.Base {
				base[p] = v
			}
			pairs := l.set.SortedPairs()
			for k := range l.edges {
				if v, ok := l.edges[k].shadow(); ok {
					base[pairs[k]] = v
				}
			}
			next := invariant.NewSet(l.set.M, base)
			l.resetLocked(next)
			l.promotions.Add(1)
			l.epoch.Add(1)
			return next
		}
	}
	for k := range l.edges {
		e := &l.edges[k]
		if e.quarantined && e.evals >= lifecycleTuning.shadowMaxEvals {
			e.num, e.den, e.n = 0, 0, 0
			e.evals, e.shadowViol, e.liveViol = 0, 0, 0
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
func (p *Profile) lifecyclePost(set *invariant.Set, raw, known []bool, scores []float64) ([]bool, []bool) {
	l := p.lc
	if l == nil {
		return raw, known
	}
	qmask, promoted := l.observe(set, raw, known, scores, p.sys.cfg.Epsilon)
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
	st.Edges = len(l.edges)
	for k := range l.edges {
		if e := &l.edges[k]; e.quarantined {
			st.Quarantined++
			st.ShadowAge = max(st.ShadowAge, e.evals)
		}
	}
	return st
}

// LifecycleEdges returns the per-edge state of the live generation in
// sorted-pair order, in the shape the store persists (nil when the
// lifecycle is disabled or untrained).
func (p *Profile) LifecycleEdges() []xmlstore.LifecycleEdge {
	l := p.lc
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

// snapshotLocked converts the records into the one snapshot shape, shadow
// fields set on quarantined edges only. Caller holds l.mu.
func (l *lifecycle) snapshotLocked() []xmlstore.LifecycleEdge {
	if l.set == nil {
		return nil
	}
	var out []xmlstore.LifecycleEdge
	for k, p := range l.set.SortedPairs() {
		e := &l.edges[k]
		le := xmlstore.LifecycleEdge{
			I: p.I, J: p.J,
			State: xmlstore.StateLive,
			Obs:   e.obs, Viol: e.viol,
			Rate: e.rate, Score: e.sum,
		}
		if e.quarantined {
			le.State = xmlstore.StateQuarantined
			if v, ok := e.shadow(); ok {
				le.ShadowBase, le.ShadowN = v, e.n
			}
			le.ShadowEvals, le.ShadowViol, le.LiveViol = e.evals, e.shadowViol, e.liveViol
		}
		out = append(out, le)
	}
	return out
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
	if l.set == nil {
		return nil
	}
	f := &xmlstore.LifecycleFile{
		Generation: l.gen,
		Observed:   l.observed,
		Promotions: l.promotions.Load(),
		Rollbacks:  l.rollbacks.Load(),
	}
	if l.set == set {
		f.Edges = l.snapshotLocked()
	}
	return f
}

// restoredLifecycle rebuilds a saved lifecycle section over set, the
// invariant set saved beside it, into a lifecycle nothing else can see yet:
// every edge is checked against set before any of the state is installed.
// A later entry for the same pair replaces an earlier one.
func restoredLifecycle(set *invariant.Set, f *xmlstore.LifecycleFile) (*lifecycle, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if set == nil {
		return nil, errors.New("core: lifecycle state has no invariants to attach to")
	}
	l := &lifecycle{set: set, edges: make([]edge, set.Len()), gen: f.Generation, observed: f.Observed}
	l.promotions.Store(f.Promotions)
	l.rollbacks.Store(f.Rollbacks)
	pairs := set.SortedPairs()
	for _, le := range f.Edges {
		k, ok := slices.BinarySearchFunc(pairs, invariant.Pair{I: le.I, J: le.J}, func(a, b invariant.Pair) int {
			return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
		})
		if !ok {
			return nil, fmt.Errorf("core: lifecycle state for unknown pair (%d,%d)", le.I, le.J)
		}
		e := edge{obs: le.Obs, viol: le.Viol, rate: le.Rate, sum: le.Score}
		if math.IsNaN(e.sum) || math.IsInf(e.sum, 0) || e.sum < 0 {
			e.sum = 0
		}
		switch le.State {
		case xmlstore.StateLive:
		case xmlstore.StateQuarantined:
			e.quarantined = true
			// The decayed weighting history collapses: the restored estimate
			// behaves like one fully-weighted score at ShadowBase standing in
			// for ShadowN, exact for the estimate, conservative for its
			// inertia.
			if le.ShadowN > 0 && !math.IsNaN(le.ShadowBase) && !math.IsInf(le.ShadowBase, 0) {
				e.num, e.den, e.n = le.ShadowBase, 1, le.ShadowN
			}
			e.evals, e.shadowViol, e.liveViol = le.ShadowEvals, le.ShadowViol, le.LiveViol
		default:
			return nil, fmt.Errorf("core: unknown lifecycle edge state %q", le.State)
		}
		l.edges[k] = e
	}
	return l, nil
}

// adopt installs a restored lifecycle's state as l's live generation.
func (l *lifecycle) adopt(r *lifecycle) {
	l.mu.Lock()
	l.set, l.edges = r.set, r.edges
	l.gen, l.observed = r.gen, r.observed
	l.mu.Unlock()
	l.promotions.Store(r.promotions.Load())
	l.rollbacks.Store(r.rollbacks.Load())
	l.epoch.Add(1)
}
