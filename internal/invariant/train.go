package invariant

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// This file is Algorithm 1 as the product runs it (Select is the dense loop
// over matrices scored in full that the tests hold it to). Training is
// pair-major: a worker takes one pair and walks it across the normal runs in
// order, tracking the range [lo, hi] of its known scores, and stops the
// moment hi − lo ≥ τ. That is the exact negation of the selection test
// hi − lo < τ, and the range can only widen as runs are added (min and max
// are monotone, and so is rounded subtraction), so a pair that exits could
// never have been selected: the set is the one a dense fill of every run
// followed by the range test yields, to the bit. Training reads only the runs it is given,
// and nothing of it outlives the call but the set and the stats.

// Run is one normal run as the training driver sees it: a metric window.
type Run struct {
	// Rows and Valid are the run's metric window, as in
	// ComputeMaskedMatrixScored.
	Rows  [][]float64
	Valid [][]bool
	// Scorer, when non-nil, prepares a batch scorer over Rows. The driver
	// calls it at most once, and only when it first scores a pair of this
	// run; a nil result sends full-overlap pairs through assoc as well.
	Scorer func() PairScorer
}

// TrainStats counts the pair-window cells of one training over the pairs it
// considered: Scored were resolved through the pair kernel, Skipped were not
// because the pair's range had already reached τ. The two sum to
// pairs × runs.
type TrainStats struct {
	Scored, Skipped int
}

// trainRun is one run inside the driver: its window and the batch scorer
// preparation it defers.
type trainRun struct {
	w       window
	prepare func() PairScorer
	once    sync.Once
}

// score resolves pair (i, j) of the run through the pair kernel and reports
// whether the score is known. The batch scorer is prepared on first use;
// sync.Once orders that write before every worker's read of w.scorer.
func (r *trainRun) score(xs, ys []float64, i, j int) (float64, bool) {
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
	m, maxN, degraded := 0, 0, false
	for r, run := range runs {
		w, err := newWindow(run.Rows, run.Valid, assoc, nil, 0)
		if err != nil {
			return nil, TrainStats{}, fmt.Errorf("invariant: run %d: %w", r, err)
		}
		if r == 0 {
			m = w.m
		} else if w.m != m {
			return nil, TrainStats{}, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, w.m)
		}
		rs[r].w, rs[r].prepare = w, run.Scorer
		maxN = max(maxN, w.n)
		degraded = degraded || w.usable != nil
	}

	pairs := m * (m - 1) / 2
	selected := make([]bool, pairs) // written per pair by the pair's worker
	base := make([]float64, pairs)
	var (
		mu  sync.Mutex
		all []*TrainStats // one per worker, summed once they are done
	)
	forEachPair(m, runtime.GOMAXPROCS(0), func() func(i, j int) {
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
				if v, known := rs[r].score(xs, ys, i, j); known {
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
