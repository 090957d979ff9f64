package invariant

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// This file is Algorithm 1 — the only copy of it. Training is pair-major: a
// worker takes one pair and walks it across the normal runs in order,
// tracking the range [lo, hi] of its known scores, and stops the moment
// hi − lo ≥ τ. That is the exact negation of the selection test hi − lo < τ,
// and the range can only widen as runs are added (min and max are monotone,
// and so is rounded subtraction), so a pair that exits could never have been
// selected: the set is the one a dense fill of every run followed by the
// range test yields, to the bit. Training reads only the runs it is given,
// and nothing of it outlives the call but the set and the stats.

// Run is one normal run as the training driver sees it: a metric window, or
// — Select's runs — a matrix already scored in full.
type Run struct {
	// Rows and Valid are the run's metric window, as in
	// ComputeMaskedMatrixScored.
	Rows  [][]float64
	Valid [][]bool
	// Scorer, when non-nil, prepares a batch scorer over Rows. The driver
	// calls it at most once, and only when it first scores a pair of this
	// run; a nil result sends full-overlap pairs through assoc as well.
	Scorer func() PairScorer
	// mat is a run already scored in full, in place of a window; a run with
	// both is an error.
	mat *Matrix
}

// TrainStats counts the pair-window cells of one training over the pairs it
// considered: Scored were resolved (through the pair kernel, or read from a
// scored matrix), Skipped were not because the pair's range had already
// reached τ. The two sum to pairs × runs.
type TrainStats struct {
	Scored, Skipped int
}

// trainRun is one run inside the driver: its window (nil for a scored
// matrix) and the batch scorer preparation it defers.
type trainRun struct {
	w       *window
	mat     *Matrix
	prepare func() PairScorer
	once    sync.Once
}

// score resolves pair (i, j), flat cell k, of the run and reports whether
// the score is known: a scored matrix's cell as it stands, a window's through
// the pair kernel. The batch scorer is prepared on first use; sync.Once
// orders that write before every worker's read of w.scorer.
func (r *trainRun) score(xs, ys []float64, k, i, j int) (float64, bool) {
	if r.mat != nil {
		return r.mat.scores[k], r.mat.known == nil || r.mat.known[k]
	}
	if r.prepare != nil {
		r.once.Do(func() { r.w.scorer = r.prepare() })
	}
	return r.w.resolve(xs, ys, i, j) // unknown scores 0
}

// Train runs Algorithm 1 over runs: keep pair (m,n) when the range of its
// known association scores across the runs is under tau (tau <= 0 selects
// DefaultTau), with baseline (Max(V)+Min(V))/2 — see Select. A NaN score is
// never an observation. keep, when non-nil, restricts training to the pairs
// it accepts; the rest are never scored. assoc scores the pairs no batch
// scorer covers.
func Train(runs []Run, assoc AssociationFunc, tau float64, keep func(Pair) bool) (*Set, TrainStats, error) {
	if len(runs) == 0 {
		return nil, TrainStats{}, ErrNoRuns
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	rs := make([]trainRun, len(runs))
	m, maxN, degraded, windows := -1, 0, false, false
	for r, run := range runs {
		tr := &rs[r]
		var dim int
		switch {
		case run.mat != nil && run.Rows != nil:
			return nil, TrainStats{}, fmt.Errorf("invariant: run %d has both a window and a scored matrix", r)
		case run.mat != nil:
			tr.mat, dim = run.mat, run.mat.M
		case run.Rows != nil:
			w, err := newWindow(run.Rows, run.Valid, assoc, nil, 0)
			if err != nil {
				return nil, TrainStats{}, fmt.Errorf("invariant: run %d: %w", r, err)
			}
			tr.w, tr.prepare, dim = &w, run.Scorer, w.m
			maxN = max(maxN, w.n)
			degraded = degraded || w.usable != nil
			windows = true
		default:
			return nil, TrainStats{}, fmt.Errorf("invariant: run %d has neither a window nor a scored matrix", r)
		}
		if m < 0 {
			m = dim
		} else if dim != m {
			return nil, TrainStats{}, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, dim)
		}
	}

	pairs := m * (m - 1) / 2
	selected := make([]bool, pairs) // written per pair by the pair's worker
	base := make([]float64, pairs)
	var (
		mu  sync.Mutex
		all []*TrainStats // one per worker, summed once they are done
	)
	procs := 1 // scored matrices only: nothing to score, nothing to fan out
	if windows {
		procs = runtime.GOMAXPROCS(0)
	}
	forEachPair(m, procs, func() func(i, j int) {
		wk := new(TrainStats)
		mu.Lock()
		all = append(all, wk)
		mu.Unlock()
		var xs, ys []float64
		if degraded {
			xs, ys = make([]float64, 0, maxN), make([]float64, 0, maxN)
		}
		return func(i, j int) {
			if keep != nil && !keep(Pair{i, j}) {
				return
			}
			k := rowOffset(m, i) + (j - i - 1)
			lo, hi := math.Inf(1), math.Inf(-1)
			for r := range rs {
				if hi-lo >= tau {
					wk.Skipped += len(rs) - r
					break
				}
				wk.Scored++
				if v, known := rs[r].score(xs, ys, k, i, j); known {
					lo, hi = widen(lo, hi, v)
				}
			}
			// lo > hi: no run could compute the pair, so nothing certifies it.
			if lo <= hi && hi-lo < tau {
				selected[k], base[k] = true, (hi+lo)/2
			}
		}
	})

	var st TrainStats
	for _, wk := range all {
		st.Scored += wk.Scored
		st.Skipped += wk.Skipped
	}
	// Flat order is (I, J) order: the pair list comes out sorted.
	set := &Set{M: m, Base: make(map[Pair]float64)}
	for i, k := 0, 0; i < m; i++ {
		for j := i + 1; j < m; j, k = j+1, k+1 {
			if selected[k] {
				set.Base[Pair{i, j}] = base[k]
				set.pairs = append(set.pairs, Pair{i, j})
			}
		}
	}
	return set, st, nil
}

// widen extends the range [lo, hi] by v with the comparisons Select has
// always used, so a NaN never widens it and signed zeros resolve as before.
func widen(lo, hi, v float64) (float64, float64) {
	if v < lo {
		lo = v
	}
	if v > hi {
		hi = v
	}
	return lo, hi
}
