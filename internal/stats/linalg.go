package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("stats: singular system")

// solveLinear solves the dense system A x = b in place-safe fashion using
// Gaussian elimination with scaled partial pivoting. A is row-major with
// len(A) == n rows of n columns each. It returns ErrSingular when the matrix
// is (numerically) rank deficient.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(b) != n {
		return nil, ErrLengthMismatch
	}
	// Work on copies; the fitters reuse their design matrices.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("stats: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	const eps = 1e-12
	for col := 0; col < n; col++ {
		// Scaled partial pivot: pick the row with the largest ratio of
		// pivot magnitude to row infinity-norm.
		pivot, best := -1, 0.0
		for row := col; row < n; row++ {
			var rowMax float64
			for k := col; k < n; k++ {
				if v := math.Abs(m[row][k]); v > rowMax {
					rowMax = v
				}
			}
			if rowMax == 0 {
				continue
			}
			if ratio := math.Abs(m[row][col]) / rowMax; ratio > best {
				best, pivot = ratio, row
			}
		}
		if pivot < 0 || math.Abs(m[pivot][col]) < eps {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		inv := 1 / m[col][col]
		for row := col + 1; row < n; row++ {
			f := m[row][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k <= n; k++ {
				m[row][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for row := n - 1; row >= 0; row-- {
		s := m[row][n]
		for k := row + 1; k < n; k++ {
			s -= m[row][k] * x[k]
		}
		x[row] = s / m[row][row]
	}
	return x, nil
}

// LeastSquares solves the overdetermined system X beta ~= y in the
// least-squares sense via the normal equations (X'X) beta = X'y with a small
// ridge term for numerical stability. X is row-major: one row per
// observation, one column per regressor. The ARX and ARMA fitters and the
// polynomial fit all route through here.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	nObs := len(x)
	if nObs == 0 {
		return nil, ErrEmpty
	}
	if len(y) != nObs {
		return nil, ErrLengthMismatch
	}
	p := len(x[0])
	if p == 0 {
		return nil, errors.New("stats: zero regressors")
	}
	if nObs < p {
		return nil, fmt.Errorf("stats: %d observations cannot identify %d coefficients", nObs, p)
	}
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return nil, fmt.Errorf("stats: observation %d has %d regressors, want %d", r, len(row), p)
		}
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
			xty[i] += row[i] * y[r]
		}
	}
	// Mirror the upper triangle and apply a tiny relative ridge so nearly
	// collinear metric pairs (common in the simulated cluster) still fit.
	var trace float64
	for i := 0; i < p; i++ {
		trace += xtx[i][i]
	}
	ridge := 1e-10 * (trace/float64(p) + 1)
	for i := 0; i < p; i++ {
		xtx[i][i] += ridge
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	return solveLinear(xtx, xty)
}

// SolveToeplitz solves the symmetric positive-definite Toeplitz system
// T x = b where T[i][j] = r[|i-j|], using the Levinson recursion in O(n^2).
// It backs the Yule-Walker AR estimator.
func SolveToeplitz(r, b []float64) ([]float64, error) {
	n := len(b)
	if n == 0 {
		return nil, ErrEmpty
	}
	if len(r) < n {
		return nil, fmt.Errorf("stats: need %d autocovariances, got %d", n, len(r))
	}
	if r[0] == 0 {
		return nil, ErrSingular
	}
	x := make([]float64, n)
	// f is the forward predictor of the Levinson recursion.
	f := make([]float64, n)
	f[0] = 1 / r[0]
	x[0] = b[0] / r[0]
	for i := 1; i < n; i++ {
		// Forward prediction error.
		var ef float64
		for j := 0; j < i; j++ {
			ef += f[j] * r[i-j]
		}
		denom := 1 - ef*ef
		if denom == 0 {
			return nil, ErrSingular
		}
		// Update the (symmetric) forward vector.
		nf := make([]float64, i+1)
		for j := 0; j <= i; j++ {
			var fj, fbj float64
			if j < i {
				fj = f[j]
			}
			if j > 0 {
				fbj = f[i-j]
			}
			nf[j] = (fj - ef*fbj) / denom
		}
		copy(f, nf)
		// Solution update.
		var ex float64
		for j := 0; j < i; j++ {
			ex += x[j] * r[i-j]
		}
		scale := b[i] - ex
		for j := 0; j <= i; j++ {
			x[j] += scale * f[i-j]
		}
	}
	return x, nil
}
