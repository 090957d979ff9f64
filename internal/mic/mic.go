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
// on first use, and fills only the DP cells the answer reads (prepared.go).
//
// Two batch-oriented entry points serve the invariant layer's exhaustive
// pairwise search: Prepare computes a metric's sort permutation and
// equipartitions once for reuse across all its pairs, and Batch scores any
// pair of a prepared metric window. Every entry point without a
// caller-owned Scratch (Compute, MIC, Batch) draws one from the package's
// single pool.
package mic

import (
	"errors"
	"fmt"
)

// ErrTooFewSamples is returned when fewer than MinSamples points are given.
var ErrTooFewSamples = errors.New("mic: too few samples")

// ErrNonFinite is returned when the sample contains NaN or ±Inf values.
// Sorting and equipartitioning are undefined over NaN (it is unordered), so
// rather than returning a grid-dependent garbage score the computation
// refuses the input; MIC maps this to the 0 sentinel, the same score the
// paper assigns to a missing association pair.
var ErrNonFinite = errors.New("mic: non-finite sample value")

// MinSamples is the smallest sample size MIC accepts. Below this the grid
// search is meaningless.
const MinSamples = 8

// Config tunes the MINE approximation.
type Config struct {
	// Alpha sets the grid budget B(n) = n^Alpha. Zero selects it from the
	// sample size: 0.7 for n ≤ 64, otherwise the classic 0.6. Reshef's
	// published default of 0.6 is calibrated for hundreds of points; at
	// the 30-sample windows of a 5-minute fault interval it leaves only
	// 2×2 grids, and strongly coupled pairs score erratically. The larger
	// budget lets a strong monotone coupling saturate near 1.0 (a stable
	// invariant) while independent noise stays well below, preserving the
	// violation margin. Budgets beyond 0.7 at this sample size overfit:
	// independent pairs start scoring like coupled ones.
	Alpha float64
	// C bounds the number of superclumps considered when optimising an
	// axis to C*a for a target of a columns. Reshef's default is 15; 5
	// loses little accuracy at this data scale and is markedly faster,
	// which matters for the pairwise invariant search (26 metrics → 325
	// MIC computations per run).
	C int
}

// DefaultConfig returns the adaptive-alpha configuration with C=5.
func DefaultConfig() Config { return Config{C: 5} }

// alphaFor returns the sample-size-adapted grid exponent.
func alphaFor(n int) float64 {
	switch {
	case n <= 64:
		return 0.7
	default:
		return 0.6
	}
}

// Result carries the MIC score and diagnostic information.
type Result struct {
	MIC      float64
	BestGrid [2]int // (columns, rows) achieving the maximum
	N        int
	B        int // grid budget used
}

// Compute returns the MIC analysis of the paired sample (xs, ys).
func Compute(xs, ys []float64, cfg Config) (Result, error) {
	if len(xs) != len(ys) {
		return Result{}, fmt.Errorf("mic: length mismatch %d vs %d", len(xs), len(ys))
	}
	px, err := Prepare(xs, cfg)
	if err != nil {
		return Result{}, err
	}
	py, err := Prepare(ys, cfg)
	if err != nil {
		return Result{}, err
	}
	return pooledPair(px, py), nil
}

// MIC is a convenience wrapper returning just the score under the default
// configuration, with 0 for data-degenerate inputs (the invariant layer
// treats "no association computable" as MIC 0, matching the paper's rule
// that a missing association pair scores 0). Only ErrTooFewSamples and
// ErrNonFinite map to the sentinel; a length mismatch is a programmer
// error, not a data condition, and panics rather than masquerading as "no
// association".
func MIC(xs, ys []float64) float64 {
	r, err := Compute(xs, ys, DefaultConfig())
	if err != nil {
		if errors.Is(err, ErrTooFewSamples) || errors.Is(err, ErrNonFinite) {
			return 0
		}
		panic(err)
	}
	return r.MIC
}
