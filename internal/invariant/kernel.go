package invariant

import (
	"fmt"
	"math"
	"runtime"
)

// This file is the pair kernel — the one place a metric pair of a window is
// turned into a score or a verdict — and the exported entry points, which
// are adapters choosing *which pairs* to run it over. Training must search
// every pair (the invariant network is unknown), so Train (train.go) walks
// all of them through forEachPair, each across the runs until its range
// rules it out, and the dense matrix fills walk all of them once; diagnosis
// only ever reads the pairs that survived selection — the paper's
// likely-invariant network is sparse (§3.3) — so the edge adapters walk
// Set.SortedPairs() and emit the violation tuple directly. A clean window is
// the nil-mask case and a scorer without rows is the all-full-overlap case
// of the same kernel.

// window is the kernel's view of one association window: the samples (when
// at hand), which of their ticks are usable, and the measures to score
// pairs with. It is read-only once built, so workers share it.
type window struct {
	m, n int
	// rows are the metric series; nil when the scorer alone covers the
	// window, which makes every pair full-overlap.
	rows [][]float64
	// usable[i][t]: metric i's sample at tick t exists and is finite. Nil on
	// a clean window — no mask, every sample finite — which lets every pair
	// skip the overlap pass.
	usable [][]bool
	assoc  AssociationFunc
	// scorer covers the full rows (typically a mic.Batch sharing each
	// metric's sort/partition work), so it only answers full-overlap pairs;
	// nil sends those through assoc too.
	scorer     PairScorer
	minSamples int
}

// scoredWindow is the window of a scorer prepared elsewhere over m metrics:
// no rows, no mask, every pair full-overlap.
func scoredWindow(m int, scorer PairScorer) (window, error) {
	if m < 2 {
		return window{}, fmt.Errorf("invariant: need >= 2 metrics, got %d", m)
	}
	if scorer == nil {
		return window{}, fmt.Errorf("invariant: nil scorer")
	}
	return window{m: m, scorer: scorer}, nil
}

// newWindow checks the window's shape — once, for every entry point — and
// works out which ticks are usable (see ComputeMaskedMatrixScored for valid
// and minSamples).
func newWindow(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer, minSamples int) (window, error) {
	m, n, err := validateRows(rows)
	if err != nil {
		return window{}, err
	}
	if valid != nil && len(valid) != m {
		return window{}, fmt.Errorf("invariant: %d mask rows for %d metrics", len(valid), m)
	}
	for i, v := range valid {
		if len(v) != n {
			return window{}, fmt.Errorf("invariant: metric %d has %d mask flags for %d samples", i, len(v), n)
		}
	}
	if minSamples <= 0 {
		minSamples = DefaultMinSamples
	}
	w := window{m: m, n: n, rows: rows, assoc: assoc, scorer: scorer, minSamples: minSamples}
	for i, r := range rows {
		for t, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) || (valid != nil && !valid[i][t]) {
				if w.usable == nil {
					w.usable = allUsable(m, n)
				}
				w.usable[i][t] = false
			}
		}
	}
	return w, nil
}

// allUsable returns an m×n all-true grid over one backing array.
func allUsable(m, n int) [][]bool {
	flat := make([]bool, m*n)
	for k := range flat {
		flat[k] = true
	}
	grid := make([][]bool, m)
	for i := range grid {
		grid[i] = flat[i*n : (i+1)*n : (i+1)*n]
	}
	return grid
}

// scratch returns one worker's private overlap buffers, reused across the
// worker's pairs. Their capacity is n, so compaction never grows them; a
// clean window needs none.
func (w *window) scratch() (xs, ys []float64) {
	if w.usable == nil {
		return nil, nil
	}
	return make([]float64, 0, w.n), make([]float64, 0, w.n)
}

// resolve is the pair kernel; xs and ys are the calling worker's scratch,
// passed empty. On a degraded window it compacts the ticks usable for both
// metrics; fewer than minSamples of them leaves the pair unknown, and a
// partial overlap scores the compacted series through assoc, since the
// scorer's preprocessing covers the full rows only. A full-overlap pair
// rides the batch scorer. ok is false for an unknown pair.
func (w *window) resolve(xs, ys []float64, i, j int) (score float64, ok bool) {
	if w.usable != nil {
		ui, uj := w.usable[i], w.usable[j]
		for t := 0; t < w.n; t++ {
			if ui[t] && uj[t] {
				xs = append(xs, w.rows[i][t])
				ys = append(ys, w.rows[j][t])
			}
		}
		if len(xs) < w.minSamples {
			return 0, false
		}
		if len(xs) < w.n {
			return w.assoc(xs, ys), true
		}
	}
	if w.scorer == nil {
		return w.assoc(w.rows[i], w.rows[j]), true
	}
	return w.scorer.Score(i, j), true
}

// fill runs the kernel over every pair, fanned out pair-by-pair: at M=26
// metrics this is 325 MIC dynamic programmes per window. Unknown pairs
// score 0.
func (w *window) fill() *Matrix {
	a := newMatrix(w.m)
	if w.usable != nil {
		a.known = make([]bool, len(a.scores))
	}
	forEachPair(w.m, runtime.GOMAXPROCS(0), func() func(i, j int) {
		xs, ys := w.scratch()
		return func(i, j int) {
			score, ok := w.resolve(xs, ys, i, j)
			if !ok {
				return
			}
			idx := a.index(i, j)
			a.scores[idx] = score
			if a.known != nil {
				a.known[idx] = true
			}
		}
	})
	return a
}

// edges runs the kernel over the trained pairs only and judges each against
// its baseline. Coordinates are SortedPairs; known is nil on a clean window
// (every pair checkable) and otherwise flags the pairs with enough overlap
// (known[k] false ⇒ tuple[k] false). scores[k] is the exact association the
// verdict judged, 0 for an unknown pair as Matrix.Get reads one.
func (s *Set) edges(w *window, epsilon float64) (tuple, known []bool, scores []float64, err error) {
	if w.m != s.M {
		return nil, nil, nil, fmt.Errorf("invariant: window over %d metrics, invariant set dimension %d", w.m, s.M)
	}
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	tuple = make([]bool, len(s.pairs))
	scores = make([]float64, len(s.pairs))
	if w.usable != nil {
		known = make([]bool, len(s.pairs))
	}
	xs, ys := w.scratch()
	for idx, p := range s.pairs {
		score, ok := w.resolve(xs, ys, p.I, p.J)
		if !ok {
			continue
		}
		scores[idx] = score
		tuple[idx] = violatedVerdict(s.Base[p], score, epsilon)
		if known != nil {
			known[idx] = true
		}
	}
	return tuple, known, scores, nil
}

// ComputeMatrixScored builds the association matrix from a pair scorer over
// m metrics — typically a mic.Batch, whose shared per-metric preprocessing
// makes each Score call skip the sorting and partitioning work that an
// AssociationFunc repeats on every call.
func ComputeMatrixScored(m int, scorer PairScorer) (*Matrix, error) {
	w, err := scoredWindow(m, scorer)
	if err != nil {
		return nil, err
	}
	return w.fill(), nil
}

// ComputeMaskedMatrixScored builds the association matrix of metric rows
// whose samples may be missing or corrupt. valid[m][t] false excludes tick t
// from every pair involving metric m (nil valid means all samples genuine);
// residual non-finite values are excluded as well. A pair with fewer than
// minSamples overlapping usable ticks (minSamples <= 0 selects
// DefaultMinSamples) scores 0 and is marked unknown in the matrix. A non-nil
// scorer prepared over the raw rows answers the full-overlap pairs; the
// rest, or all of them under a nil scorer, go through assoc. No product path
// calls it: it is the dense reference the sparse edge path and Train are
// tested against.
func ComputeMaskedMatrixScored(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer, minSamples int) (*Matrix, error) {
	w, err := newWindow(rows, valid, assoc, scorer, minSamples)
	if err != nil {
		return nil, err
	}
	return w.fill(), nil
}

// ComputeEdgesScored evaluates only the trained invariant pairs against a
// pair scorer covering all s.M metrics of the window being diagnosed, and
// returns their violation tuple and scores — identical to judging the same
// cells of the full matrix with Violated: every pair is scored exactly.
func (s *Set) ComputeEdgesScored(scorer PairScorer, epsilon float64) (tuple []bool, scores []float64, err error) {
	w, err := scoredWindow(s.M, scorer)
	if err != nil {
		return nil, nil, err
	}
	tuple, _, scores, err = s.edges(&w, epsilon)
	return tuple, scores, err
}

// ComputeEdgesMasked evaluates only the trained invariant pairs over metric
// rows whose samples may be missing or corrupt; per pair the semantics are
// exactly ComputeMaskedMatrixScored's cell judged with Violated (an unknown
// cell is unknown, not violated, and scores 0). On clean rows (nil valid,
// all finite) it is ComputeEdgesScored and known is nil.
func (s *Set) ComputeEdgesMasked(rows [][]float64, valid [][]bool, assoc AssociationFunc, scorer PairScorer, minSamples int, epsilon float64) (tuple, known []bool, scores []float64, err error) {
	w, err := newWindow(rows, valid, assoc, scorer, minSamples)
	if err != nil {
		return nil, nil, nil, err
	}
	return s.edges(&w, epsilon)
}
