// Package invariant implements the paper's observable-likely-invariant
// layer (§2, §3.3):
//
//   - pairwise association matrices over the M collected metrics, computed
//     with a pluggable association measure (MIC in InvarNet-X, ARX fitness
//     in the baseline);
//   - Algorithm 1, invariant selection: a metric pair (m,n) is an invariant
//     when its association scores over N normal runs stay within a range of
//     tau (Max(V) − Min(V) < tau), with the invariant's baseline value set
//     to Max(V) (the midpoint here, see Select); training is pair-major and
//     drops a pair the moment its range reaches tau (train.go);
//   - violation detection: under an abnormal window, pair (m,n) is violated
//     when |I(m,n) − A(m,n)| ≥ epsilon. The binary violation tuple over the
//     invariant set is the problem signature.
package invariant

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
)

// Default thresholds from the paper.
const (
	// DefaultTau is the invariant-selection stability threshold (§3.3).
	DefaultTau = 0.2
	// DefaultEpsilon is the violation threshold (§2).
	DefaultEpsilon = 0.2
)

// ErrNoRuns is returned when training or selection receives no runs.
var ErrNoRuns = errors.New("invariant: no training runs")

// AssociationFunc computes a symmetric association score in [0, 1] for a
// metric pair. mic.MIC and arx.Association both satisfy it.
type AssociationFunc func(x, y []float64) float64

// Matrix holds the pairwise association scores of M metrics (upper
// triangle, i < j) together with their knownness: a pair whose metrics were
// unavailable in the window (agent outage, dropped or corrupt samples)
// carries no computable score and is *unknown* — every consumer must treat
// it as neither holding nor violated, and Select as not observed at all. A
// NaN score (the measure's own) is not an observation either.
type Matrix struct {
	M      int
	scores []float64
	known  []bool // parallel to scores; nil = every pair known
}

// newMatrix returns a zero, all-known matrix over m metrics.
func newMatrix(m int) *Matrix {
	return &Matrix{M: m, scores: make([]float64, m*(m-1)/2)}
}

// index maps (i, j), i < j, to flat storage.
func (a *Matrix) index(i, j int) int {
	if i > j {
		i, j = j, i
	}
	if i == j || j >= a.M || i < 0 {
		panic(fmt.Sprintf("invariant: bad pair (%d,%d) for M=%d", i, j, a.M))
	}
	return rowOffset(a.M, i) + (j - i - 1)
}

// Get returns the score of pair (i, j); 0 for an unknown pair.
func (a *Matrix) Get(i, j int) float64 { return a.scores[a.index(i, j)] }

// Known reports whether pair (i, j) carries a computable score.
func (a *Matrix) Known(i, j int) bool { return a.known == nil || a.known[a.index(i, j)] }

// PairScorer scores a metric pair by index. It decouples the matrix fill
// from how scores are produced: mic.Batch satisfies it structurally (shared
// per-metric preprocessing), and any closure-backed adapter works for other
// measures. The invariant package stays free of a mic dependency.
type PairScorer interface {
	Score(i, j int) float64
}

// validateRows checks the metric rows share one length and returns (m, n).
func validateRows(rows [][]float64) (m, n int, err error) {
	m = len(rows)
	if m < 2 {
		return 0, 0, fmt.Errorf("invariant: need >= 2 metrics, got %d", m)
	}
	n = len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			return 0, 0, fmt.Errorf("invariant: metric %d has %d samples, want %d", i, len(r), n)
		}
	}
	return m, n, nil
}

// rowOffset returns the flat upper-triangle index of pair (i, i+1): row i
// starts after i*(2m−i−1)/2 earlier pairs. The one copy of the triangle
// layout: Matrix.index adds the column distance, pairAt inverts it.
func rowOffset(m, i int) int { return i * (2*m - i - 1) / 2 }

// pairAt inverts the flat upper-triangle index: the pair (i, j) stored at
// position k. The row solves rowOffset(m,i) <= k < rowOffset(m,i+1); the
// closed-form root is fixed up with at most a step or two of adjustment to
// absorb floating-point rounding at large m.
func pairAt(m, k int) (i, j int) {
	d := float64((2*m-1)*(2*m-1) - 8*k)
	i = int((float64(2*m-1) - math.Sqrt(d)) / 2)
	if i > m-2 {
		i = m - 2
	}
	for i > 0 && rowOffset(m, i) > k {
		i--
	}
	for i < m-2 && rowOffset(m, i+1) <= k {
		i++
	}
	return i, i + 1 + (k - rowOffset(m, i))
}

// forEachPair runs work(i, j) exactly once for every pair i < j of m
// metrics, distributing *individual pairs* over at most workers goroutines
// via a shared atomic counter. Each worker gets a private closure from
// newWorker so it can hold scratch buffers without synchronisation. Pair
// granularity matters: the row-sharded split this replaces handed worker w
// all pairs of row w, so the worker holding row 0 carried m−1 scores while
// the one holding row m−2 carried a single score, and the pool capped itself
// at m workers even when pairs outnumbered CPUs. With one usable worker (or
// one pair) the loop runs serially — no goroutines, bit-identical order.
//
// A panic in a worker does not kill the process from a goroutine no caller
// can recover on: the worker recovers it, no further pairs are handed out,
// and once every worker has returned the first one is re-panicked on the
// calling goroutine as a *workerPanic, where the caller's own recovery (a
// scheduler task's) sees it as it would a serial panic.
func forEachPair(m, workers int, newWorker func() func(i, j int)) {
	pairs := m * (m - 1) / 2
	if workers > pairs {
		workers = pairs
	}
	if workers <= 1 {
		work := newWorker()
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				work(i, j)
			}
		}
		return
	}
	var sched struct { // one heap object shared with the workers
		next     atomic.Int64
		wg       sync.WaitGroup
		once     sync.Once
		panicked *workerPanic // the first recovered panic; read after wg.Wait
	}
	for w := 0; w < workers; w++ {
		sched.wg.Add(1)
		go func() {
			defer sched.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					sched.next.Store(int64(pairs)) // hand out no further pairs
					sched.once.Do(func() { sched.panicked = &workerPanic{p, debug.Stack()} })
				}
			}()
			work := newWorker()
			for {
				k := int(sched.next.Add(1)) - 1
				if k >= pairs {
					return
				}
				i, j := pairAt(m, k)
				work(i, j)
			}
		}()
	}
	sched.wg.Wait()
	if sched.panicked != nil {
		panic(sched.panicked)
	}
}

// workerPanic is a pair worker's panic as forEachPair re-panics it: the value
// and the worker's stack where it was recovered, which still holds the frame
// that panicked. The stack of the re-panic ends in forEachPair, so a caller
// that logs what it recovers (the scheduler does) prints this one to name
// the failing pair kernel.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) String() string {
	return fmt.Sprintf("%v [recovered in a pair worker]\n%s", p.value, p.stack)
}

// Pair identifies a metric pair, I < J.
type Pair struct {
	I, J int
}

// DefaultMinSamples is the smallest number of overlapping valid samples a
// pair needs for its association to be computable under a degraded
// telemetry window (the smallest sample MIC itself scores).
const DefaultMinSamples = 8

// Set is a selected invariant set: the stable pairs and their baseline
// association values.
type Set struct {
	M     int
	Base  map[Pair]float64
	pairs []Pair // sorted, cached
}

// Select implements Algorithm 1 over already-computed run matrices: keep
// pair (m,n) when the range of its association scores across the N run
// matrices is under tau. All matrices must have the same dimension. The
// range is taken over the runs in which the pair was computable; a pair
// unknown (or NaN) in every run is never selected. It is the dense form of
// Train's pair-major loop — every cell of every run read, no early exit —
// which the benchmark times and the tests hold Train to.
//
// Deviation from the paper's pseudocode, documented in DESIGN.md: the
// stored baseline is the midpoint (Max(V)+Min(V))/2 rather than Max(V).
// With Max as the baseline, a fresh normal window whose score lands just
// epsilon below the *best* training score is flagged as a violation even
// though it sits inside the observed normal range; centering the baseline
// gives the violation test symmetric headroom and halves the noise in the
// violation tuples without changing which genuine breaks register (a broken
// association drops far below any normal-state score).
func Select(runs []*Matrix, tau float64) (*Set, error) {
	if len(runs) == 0 {
		return nil, ErrNoRuns
	}
	m := runs[0].M
	for _, r := range runs[1:] {
		if r.M != m {
			return nil, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, r.M)
		}
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	s := &Set{M: m, Base: make(map[Pair]float64)}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			k := runs[0].index(i, j)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range runs {
				if r.known == nil || r.known[k] { // unknown: not an observation of 0
					lo, hi = widen(lo, hi, r.scores[k])
				}
			}
			// lo > hi: no run could compute the pair, so nothing certifies it.
			if lo <= hi && hi-lo < tau {
				s.Base[Pair{i, j}] = (hi + lo) / 2
				s.pairs = append(s.pairs, Pair{i, j})
			}
		}
	}
	return s, nil
}

// NewSet builds a Set directly from baseline values (used when loading a
// persisted invariant file).
func NewSet(m int, base map[Pair]float64) *Set {
	s := &Set{M: m, Base: make(map[Pair]float64, len(base))}
	for p, v := range base {
		if p.I > p.J {
			p = Pair{p.J, p.I}
		}
		s.Base[p] = v
	}
	s.buildPairList()
	return s
}

func (s *Set) buildPairList() {
	s.pairs = s.pairs[:0]
	for p := range s.Base {
		s.pairs = append(s.pairs, p)
	}
	sort.Slice(s.pairs, func(a, b int) bool {
		if s.pairs[a].I != s.pairs[b].I {
			return s.pairs[a].I < s.pairs[b].I
		}
		return s.pairs[a].J < s.pairs[b].J
	})
}

// SortedPairs returns the invariant pairs in deterministic order — the
// coordinate system of every violation tuple derived from this set.
func (s *Set) SortedPairs() []Pair { return s.pairs }

// Len returns the number of invariants.
func (s *Set) Len() int { return len(s.pairs) }

// violatedVerdict is the single violation test: |base − score| ≥ epsilon,
// with a small slack making the comparison robust to floating-point
// representation of differences that are exactly epsilon. The edge pass
// (kernel.go) and Violated are its only callers, which is what makes every
// judge of a score — the lifecycle's shadow, the tests' dense reference —
// verdict-identical to the edge pass.
func violatedVerdict(base, score, epsilon float64) bool {
	const slack = 1e-9
	return math.Abs(base-score) >= epsilon-slack
}

// Violated is violatedVerdict for callers outside the package (epsilon <= 0
// selects DefaultEpsilon): core's lifecycle judges a shadow baseline
// side-by-side against the live one with bit-identical semantics.
func Violated(base, score, epsilon float64) bool {
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	return violatedVerdict(base, score, epsilon)
}
