package invariant

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is Algorithm 1 — the only copy of it. Training is pair-major: a
// worker takes one pair and walks it across the normal runs, tracking the
// range [lo, hi] of its known scores, and stops the moment hi − lo ≥ τ. That
// is the exact negation of the selection test hi − lo < τ, and the range can
// only widen as runs are added (min and max are monotone, and so is rounded
// subtraction), so a pair that exits could never have been selected: the set
// is the one a dense fill of every run followed by the range test yields, to
// the bit. A cold training reads the runs in pool order, as that loop did; a
// warm one reads memoised cells first, and min, max and the midpoint do not
// depend on the order (short of a −0 score, which no measure here returns).
//
// Each run carries a memo: the cells earlier trainings resolved for its
// window. A memo cell is in one of three states — scored (known, the value),
// unknown (known false: too little usable overlap) or *pending* (NaN: never
// scored, because every pair that reached it had already exited). A pair
// reads every memoised cell first, then scores its pending cells in pool
// order until its range reaches τ, so re-training a pool scores only the
// pairs still alive on the windows they have not seen.

// Run is one normal run as the training driver sees it: its window and what
// earlier trainings already scored of it.
type Run struct {
	// Rows and Valid are the run's metric window, as in
	// ComputeMaskedMatrixScored. Nil Rows makes a memo-only run, whose
	// pending cells are not observations.
	Rows  [][]float64
	Valid [][]bool
	// Scorer, when non-nil, prepares a batch scorer over Rows. The driver
	// calls it at most once, and only when it first scores a pair of this
	// run; a nil result sends full-overlap pairs through assoc as well.
	Scorer func() PairScorer
	// Memo holds the cells earlier trainings resolved for this window; nil
	// means none. The driver only reads it.
	Memo *Matrix
}

// TrainStats counts the pair-window cells of one training over the pairs it
// considered: Scored went through the pair kernel, Memo were read from a
// run's memo, Skipped were left pending — the pair's range had already
// reached τ, or the run had no window. The three sum to pairs × runs.
type TrainStats struct {
	Scored, Memo, Skipped int
}

// trainRun is one run inside the driver. out is the fresh memo newly scored
// cells are written into (nil for a memo-only run); workers write distinct
// cells, so it needs no lock. scored records that out gained a cell.
type trainRun struct {
	w       *window
	memo    *Matrix
	out     *Matrix
	scored  atomic.Bool
	prepare func() PairScorer
	once    sync.Once
}

// pending reports whether cell k of the run's memo is still unscored.
func (r *trainRun) pending(k int) bool {
	return r.memo == nil || math.IsNaN(r.memo.scores[k])
}

// score resolves pair (i, j) of the run through the pair kernel and records
// the outcome in out. The batch scorer is prepared on first use; sync.Once
// orders that write before every worker's read of w.scorer.
func (r *trainRun) score(xs, ys []float64, k, i, j int) (float64, tier) {
	if r.prepare != nil {
		r.once.Do(func() { r.w.scorer = r.prepare() })
	}
	v, how := r.w.resolve(xs, ys, i, j, 0, 0) // unknown scores 0
	r.out.scores[k] = v
	if r.out.known != nil {
		r.out.known[k] = how != tierUnknown
	}
	r.scored.Store(true)
	return v, how
}

// pendingCopy returns a private copy of memo for a run over m metrics that
// newly scored cells can be written into; nil memo gives an all-pending
// matrix. It carries a known slice when the memo does or the window is
// degraded.
func pendingCopy(memo *Matrix, m int, degraded bool) *Matrix {
	out := &Matrix{M: m, scores: make([]float64, m*(m-1)/2)}
	if memo != nil {
		copy(out.scores, memo.scores)
	} else {
		for k := range out.scores {
			out.scores[k] = math.NaN()
		}
	}
	if degraded || (memo != nil && memo.known != nil) {
		out.known = make([]bool, len(out.scores))
		switch {
		case memo == nil: // every cell pending: knownness is set when scored
		case memo.known == nil:
			for k := range out.known {
				out.known[k] = true
			}
		default:
			copy(out.known, memo.known)
		}
	}
	return out
}

// Train runs Algorithm 1 over runs: keep pair (m,n) when the range of its
// known association scores across the runs is under tau (tau <= 0 selects
// DefaultTau), with baseline (Max(V)+Min(V))/2 — see Select. keep, when
// non-nil, restricts training to the pairs it accepts; the rest are never
// scored. assoc scores the pairs no batch scorer covers.
//
// memos[r] is run r's memo after training: runs[r].Memo itself when the run
// had one and nothing new was scored in it, otherwise a fresh matrix. A
// caller memoising windows stores the fresh ones and never mutates either.
func Train(runs []Run, assoc AssociationFunc, tau float64, keep func(Pair) bool) (set *Set, memos []*Matrix, st TrainStats, err error) {
	if len(runs) == 0 {
		return nil, nil, TrainStats{}, ErrNoRuns
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	rs := make([]trainRun, len(runs))
	m, maxN, degraded, windows := -1, 0, false, false
	for r, run := range runs {
		tr := &rs[r]
		tr.memo = run.Memo
		dim := -1
		if run.Memo != nil {
			dim = run.Memo.M
		}
		if run.Rows != nil {
			w, err := newWindow(run.Rows, run.Valid, assoc, nil, 0)
			if err != nil {
				return nil, nil, TrainStats{}, fmt.Errorf("invariant: run %d: %w", r, err)
			}
			if dim >= 0 && dim != w.m {
				return nil, nil, TrainStats{}, fmt.Errorf("invariant: run %d: memo over %d metrics, window over %d", r, dim, w.m)
			}
			dim = w.m
			tr.w, tr.prepare = &w, run.Scorer
			maxN = max(maxN, w.n)
			degraded = degraded || w.usable != nil
			windows = true
		}
		if dim < 0 {
			return nil, nil, TrainStats{}, fmt.Errorf("invariant: run %d has neither a window nor a memo", r)
		}
		if m < 0 {
			m = dim
		} else if dim != m {
			return nil, nil, TrainStats{}, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, dim)
		}
		if tr.w != nil {
			tr.out = pendingCopy(run.Memo, m, tr.w.usable != nil)
		}
	}

	pairs := m * (m - 1) / 2
	selected := make([]bool, pairs) // written per pair by the pair's worker
	base := make([]float64, pairs)
	var (
		mu  sync.Mutex
		all []*TrainStats // one per worker, summed once they are done
	)
	procs := 1 // memo-only runs: nothing to score, nothing to fan out
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
			pending := 0
			for r := range rs {
				if rs[r].pending(k) {
					pending++
					continue
				}
				wk.Memo++
				if mm := rs[r].memo; mm.known == nil || mm.known[k] {
					lo, hi = widen(lo, hi, mm.scores[k])
				}
			}
			for r := range rs {
				if pending == 0 || hi-lo >= tau {
					break
				}
				tr := &rs[r]
				if !tr.pending(k) {
					continue
				}
				pending--
				if tr.w == nil {
					wk.Skipped++
					continue
				}
				wk.Scored++
				if v, how := tr.score(xs, ys, k, i, j); how != tierUnknown {
					lo, hi = widen(lo, hi, v)
				}
			}
			wk.Skipped += pending
			// lo > hi: no run could compute the pair, so nothing certifies it.
			if lo <= hi && hi-lo < tau {
				selected[k], base[k] = true, (hi+lo)/2
			}
		}
	})

	for _, wk := range all {
		st.Scored += wk.Scored
		st.Memo += wk.Memo
		st.Skipped += wk.Skipped
	}
	memos = make([]*Matrix, len(rs))
	for r := range rs {
		memos[r] = rs[r].memo
		if rs[r].out != nil && (rs[r].memo == nil || rs[r].scored.Load()) {
			memos[r] = rs[r].out
		}
	}
	// Flat order is (I, J) order: the pair list comes out sorted.
	set = &Set{M: m, Base: make(map[Pair]float64)}
	for i, k := 0, 0; i < m; i++ {
		for j := i + 1; j < m; j, k = j+1, k+1 {
			if selected[k] {
				set.Base[Pair{i, j}] = base[k]
				set.pairs = append(set.pairs, Pair{i, j})
			}
		}
	}
	return set, memos, st, nil
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
