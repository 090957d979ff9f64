package invariant

import (
	"fmt"
	"math"

	"invarnetx/internal/stats"
)

// This file tracks the *health* of a trained invariant set under
// nonstationarity. Selection (Algorithm 1) certifies each edge as stable
// over the training runs; health tracking re-checks that certificate
// online by watching each edge's violation rate across diagnosed windows.
// At training time the expected violation rate on normal traffic is ~0 by
// construction — an edge whose rate shifts persistently upward has
// *drifted*: the platform's coupling changed and the stored baseline is
// stale, so the edge would turn every clean window into a false positive.
// A one-sided CUSUM (internal/stats) per edge separates that persistent
// shift from the short violation bursts a genuine fault produces, and a
// drifted edge degrades to EdgeQuarantined: excluded from diagnosis
// verdicts but still observed, so the lifecycle layer above can re-estimate
// its baseline and fold it into a new model generation.

// EdgeState is the lifecycle state of one trained invariant edge.
type EdgeState uint8

const (
	// EdgeLive is the normal state: the edge contributes to violation
	// tuples, hints and signature matching.
	EdgeLive EdgeState = iota
	// EdgeQuarantined marks a drifted edge: still observed, but reported
	// unknown (neither holding nor violated) to the diagnosis layer.
	EdgeQuarantined
)

func (s EdgeState) String() string {
	switch s {
	case EdgeLive:
		return "live"
	case EdgeQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("EdgeState(%d)", uint8(s))
	}
}

// ParseEdgeState inverts EdgeState.String (used when loading a persisted
// lifecycle section).
func ParseEdgeState(s string) (EdgeState, error) {
	switch s {
	case "live":
		return EdgeLive, nil
	case "quarantined":
		return EdgeQuarantined, nil
	default:
		return 0, fmt.Errorf("invariant: unknown edge state %q", s)
	}
}

// Violated is the violation test shared by every diagnosis path:
// |base − score| ≥ epsilon, with the same floating-point slack as the
// internal verdict. Exported so the lifecycle layer can evaluate a shadow
// baseline side-by-side against the live one with bit-identical semantics.
func Violated(base, score, epsilon float64) bool {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	return violatedVerdict(base, score, epsilon)
}

// HealthConfig parameterises drift detection over an invariant set. Zero
// values select the documented defaults.
type HealthConfig struct {
	// MinObservations is how many windows an edge must be observed before
	// it may be declared drifted (default 8): the detector accumulates
	// from the first window, but the verdict waits until the series is
	// long enough to mean something.
	MinObservations int
	// Drift is the tolerated per-window violation rate (default 0.1): the
	// CUSUM accumulates only the excess above it, so occasional fault
	// windows drain back out instead of quarantining a healthy edge.
	Drift float64
	// Threshold is the CUSUM alarm level (default 4): with the default
	// Drift, an edge violating every window drifts in ~5 windows while a
	// fault burst of 2-3 windows decays harmlessly.
	Threshold float64
	// RateAlpha is the EWMA weight of the reported per-edge violation
	// rate (default 0.1) — observability only, not part of the verdict.
	RateAlpha float64
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.MinObservations <= 0 {
		c.MinObservations = 8
	}
	if c.Drift <= 0 || math.IsNaN(c.Drift) {
		c.Drift = 0.1
	}
	if c.Threshold <= 0 || math.IsNaN(c.Threshold) {
		c.Threshold = 4
	}
	if c.RateAlpha <= 0 || c.RateAlpha > 1 || math.IsNaN(c.RateAlpha) {
		c.RateAlpha = 0.1
	}
	return c
}

// EdgeHealth is the observable snapshot of one edge's health series.
type EdgeHealth struct {
	Pair  Pair
	State EdgeState
	// Obs and Viol count observed windows and violations among them.
	Obs, Viol int64
	// Rate is the EWMA violation rate.
	Rate float64
	// Score is the change-point accumulator (CUSUM evidence).
	Score float64
}

// Health tracks the per-edge health series of one invariant set, in the
// set's sorted-pair order (the violation-tuple coordinate system). It is
// not synchronised: the owner (core's lifecycle layer) serialises access.
type Health struct {
	cfg   HealthConfig
	pairs []Pair
	index map[Pair]int
	state []EdgeState
	obs   []int64
	viol  []int64
	rate  []float64
	cusum []stats.CUSUM
	quar  int
}

// NewHealth returns a fresh all-live health tracker over set's edges.
func NewHealth(set *Set, cfg HealthConfig) *Health {
	cfg = cfg.withDefaults()
	pairs := set.SortedPairs()
	h := &Health{
		cfg:   cfg,
		pairs: pairs,
		index: make(map[Pair]int, len(pairs)),
		state: make([]EdgeState, len(pairs)),
		obs:   make([]int64, len(pairs)),
		viol:  make([]int64, len(pairs)),
		rate:  make([]float64, len(pairs)),
		cusum: make([]stats.CUSUM, len(pairs)),
	}
	for k, p := range pairs {
		h.index[p] = k
		h.cusum[k] = *stats.NewCUSUM(cfg.Drift, cfg.Threshold)
	}
	return h
}

// Observe feeds one window's raw edge verdicts (tuple[k] true = violated;
// known nil = every edge checkable) and returns the indices of edges that
// just crossed into quarantine. Verdicts must be the *pre-quarantine* raw
// ones — a quarantined edge keeps being observed, which is what lets a
// later generation rehabilitate it.
func (h *Health) Observe(tuple, known []bool) ([]int, error) {
	if len(tuple) != len(h.pairs) {
		return nil, fmt.Errorf("invariant: health over %d edges observed tuple of %d", len(h.pairs), len(tuple))
	}
	if known != nil && len(known) != len(h.pairs) {
		return nil, fmt.Errorf("invariant: health over %d edges observed known mask of %d", len(h.pairs), len(known))
	}
	var drifted []int
	for k := range h.pairs {
		if known != nil && !known[k] {
			continue // unknown: the window carries no information on this edge
		}
		h.obs[k]++
		x := 0.0
		if tuple[k] {
			x = 1.0
			h.viol[k]++
		}
		h.rate[k] += h.cfg.RateAlpha * (x - h.rate[k])
		alarm := h.cusum[k].Offer(x)
		if h.state[k] == EdgeLive && alarm && h.obs[k] >= int64(h.cfg.MinObservations) {
			h.state[k] = EdgeQuarantined
			h.quar++
			drifted = append(drifted, k)
		}
	}
	return drifted, nil
}

// QuarantinedCount returns how many edges are quarantined.
func (h *Health) QuarantinedCount() int { return h.quar }

// Quarantined returns the quarantine mask in sorted-pair order, or nil
// when every edge is live — the shape the diagnosis layer consumes.
func (h *Health) Quarantined() []bool {
	if h.quar == 0 {
		return nil
	}
	mask := make([]bool, len(h.state))
	for k, st := range h.state {
		mask[k] = st == EdgeQuarantined
	}
	return mask
}

// Snapshot returns the per-edge health series for reporting and
// persistence, in sorted-pair order.
func (h *Health) Snapshot() []EdgeHealth {
	out := make([]EdgeHealth, len(h.pairs))
	for k, p := range h.pairs {
		out[k] = EdgeHealth{
			Pair:  p,
			State: h.state[k],
			Obs:   h.obs[k],
			Viol:  h.viol[k],
			Rate:  h.rate[k],
			Score: h.cusum[k].Value(),
		}
	}
	return out
}

// Restore overwrites one edge's series from a persisted snapshot, matching
// by pair, and returns the edge's sorted-pair index. Unknown pairs report an
// error (the caller decides whether a stale persisted edge is worth failing
// over).
func (h *Health) Restore(e EdgeHealth) (int, error) {
	k, ok := h.index[e.Pair]
	if !ok {
		return 0, fmt.Errorf("invariant: health restore for unknown pair (%d,%d)", e.Pair.I, e.Pair.J)
	}
	if h.state[k] == EdgeQuarantined {
		h.quar--
	}
	h.state[k] = e.State
	if e.State == EdgeQuarantined {
		h.quar++
	}
	h.obs[k] = e.Obs
	h.viol[k] = e.Viol
	h.rate[k] = e.Rate
	h.cusum[k].Restore(e.Score)
	return k, nil
}
