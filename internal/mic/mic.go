// Package mic implements the Maximal Information Coefficient of Reshef et
// al., "Detecting Novel Associations in Large Data Sets", Science 334 (2011).
//
// InvarNet-X replaces the linear ARX invariants of Jiang et al. with MIC
// associations precisely because MIC assigns high scores to *any*
// sufficiently strong functional (or even non-functional) relationship
// between two metrics, linear or not — "non-linearity is a more common case"
// in software systems (paper §5).
//
// The implementation follows the MINE approximation:
//
//   - For every grid shape (a columns × b rows) with a·b ≤ B(n) = n^alpha,
//     estimate the maximal mutual information I*(D, a, b) achievable by an
//     a×b grid: equipartition one axis into b rows, then find the optimal
//     partition of the other axis into ≤ a columns by dynamic programming
//     over "clump" boundaries.
//   - The characteristic matrix entry is M(a,b) = I*(a,b) / log min(a,b);
//     MIC is the maximum entry. Both axis orientations are evaluated and
//     the element-wise maximum taken, as in the reference MINE
//     implementation.
//
// The dynamic programme exploits the identity
// I(P;Q) = H(Q) − H(Q|P) with H(Q|P) additive over the bins of P, so the
// optimal column partition is a shortest-path problem over clump
// boundaries. A bin's cost is a sum of cnt·log(tot/cnt) terms with
// cnt ≤ tot ≤ n, so the kernel looks them up in a process-wide table built
// on first use, beside a second table holding a two-row bin's whole cost,
// the dearest grid's one lookup. It fills each DP's cost table in one
// inlined pass with the table row and the two histogram rows hoisted, and
// fills only the DP cells the answer reads (prepared.go). At n = 30 those tables are a few
// dozen entries, so what costs is deciding, not adding: clump building
// writes each clump's own counts and prefix-sums them once, and whether a
// tie group opens a clump, whether a superclump boundary is kept and which
// DP candidate is smallest are computed values (0/1 flags, builtin min),
// not branches. Every score is bit-identical to the direct evaluation.
//
// The package exports the measure (MIC) and Batch, the engine behind the
// invariant layer's pairwise searches: NewBatch prepares every metric of a
// window once — sort permutation, tie runs and equipartitions, shared by all
// the metric's pairs — and Score runs the kernel over any pair of them. Every
// scoring path draws its buffers from the package's single scratch pool.
// Slider, NewBatchPrepared and Batch.ScreenLow have no product caller; the
// end-to-end benchmark replays them.
package mic

import (
	"errors"
	"fmt"
)

// errTooFewSamples is returned when fewer than minSamples points are given.
var errTooFewSamples = errors.New("mic: too few samples")

// errNonFinite is returned when the sample contains NaN or ±Inf values.
// Sorting and equipartitioning are undefined over NaN (it is unordered), so
// rather than returning a grid-dependent garbage score the computation
// refuses the input; MIC maps this to the 0 sentinel, the same score the
// paper assigns to a missing association pair.
var errNonFinite = errors.New("mic: non-finite sample value")

// minSamples is the smallest sample size MIC accepts. Below this the grid
// search is meaningless.
const minSamples = 8

// Config is the MINE approximation's configuration. It has no fields: the
// grid budget follows the sample size (alphaFor) and the superclump bound is
// superclumpC, the one setting every score in the system is made under.
// NewBatch and NewSlider still take one so their callers in the bench/
// harness keep compiling; it changes nothing.
type Config struct{}

// DefaultConfig returns the one configuration.
func DefaultConfig() Config { return Config{} }

// superclumpC bounds the number of superclumps considered when optimising
// an axis to superclumpC*a for a target of a columns. Reshef's default is
// 15; 5 loses little accuracy at this data scale and is markedly faster,
// which matters for the pairwise invariant search (26 metrics → 325 MIC
// computations per run).
const superclumpC = 5

// alphaFor returns the grid exponent alpha of the budget B(n) = n^alpha,
// adapted to the sample size: 0.7 for n ≤ 64, otherwise the classic 0.6.
// Reshef's published default of 0.6 is calibrated for hundreds of points;
// at the 30-sample windows of a 5-minute fault interval it leaves only 2×2
// grids, and strongly coupled pairs score erratically. The larger budget
// lets a strong monotone coupling saturate near 1.0 (a stable invariant)
// while independent noise stays well below, preserving the violation
// margin. Budgets beyond 0.7 at this sample size overfit: independent pairs
// start scoring like coupled ones.
func alphaFor(n int) float64 {
	switch {
	case n <= 64:
		return 0.7
	default:
		return 0.6
	}
}

// result carries the MIC score and diagnostic information.
type result struct {
	MIC      float64
	BestGrid [2]int // (columns, rows) achieving the maximum
	N        int
	B        int // grid budget used
}

// compute returns the MIC analysis of the paired sample (xs, ys).
func compute(xs, ys []float64) (result, error) {
	if len(xs) != len(ys) {
		return result{}, fmt.Errorf("mic: length mismatch %d vs %d", len(xs), len(ys))
	}
	px, err := prepare(xs)
	if err != nil {
		return result{}, err
	}
	py, err := prepare(ys)
	if err != nil {
		return result{}, err
	}
	return pooledPair(px, py), nil
}

// MIC is a convenience wrapper returning just the score, with 0 for data-degenerate inputs (the invariant layer
// treats "no association computable" as MIC 0, matching the paper's rule
// that a missing association pair scores 0). Only errTooFewSamples and
// errNonFinite map to the sentinel; a length mismatch is a programmer
// error, not a data condition, and panics rather than masquerading as "no
// association".
func MIC(xs, ys []float64) float64 {
	r, err := compute(xs, ys)
	if err != nil {
		if errors.Is(err, errTooFewSamples) || errors.Is(err, errNonFinite) {
			return 0
		}
		panic(err)
	}
	return r.MIC
}
