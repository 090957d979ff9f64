package stats

import (
	"fmt"
	"strings"
)

// Polynomial is a polynomial in one variable with Coeffs[i] the coefficient
// of x^i. The Fig. 4 experiment fits a 2nd-order polynomial to the
// (execution time, CPI) scatter and checks monotonicity over the data range.
type Polynomial struct {
	Coeffs []float64
}

// PolyFit fits a polynomial of the given degree to the points (xs, ys) by
// least squares.
func PolyFit(xs, ys []float64, degree int) (Polynomial, error) {
	if len(xs) != len(ys) {
		return Polynomial{}, ErrLengthMismatch
	}
	if degree < 0 {
		return Polynomial{}, fmt.Errorf("stats: negative polynomial degree %d", degree)
	}
	if len(xs) < degree+1 {
		return Polynomial{}, fmt.Errorf("stats: %d points cannot fit degree-%d polynomial", len(xs), degree)
	}
	design := make([][]float64, len(xs))
	for i, x := range xs {
		row := make([]float64, degree+1)
		pow := 1.0
		for j := 0; j <= degree; j++ {
			row[j] = pow
			pow *= x
		}
		design[i] = row
	}
	coeffs, err := LeastSquares(design, ys)
	if err != nil {
		return Polynomial{}, err
	}
	return Polynomial{Coeffs: coeffs}, nil
}

// Eval evaluates the polynomial at x using Horner's rule.
func (p Polynomial) Eval(x float64) float64 {
	var v float64
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		v = v*x + p.Coeffs[i]
	}
	return v
}

// Derivative returns the derivative polynomial.
func (p Polynomial) Derivative() Polynomial {
	if len(p.Coeffs) <= 1 {
		return Polynomial{Coeffs: []float64{0}}
	}
	d := make([]float64, len(p.Coeffs)-1)
	for i := 1; i < len(p.Coeffs); i++ {
		d[i-1] = float64(i) * p.Coeffs[i]
	}
	return Polynomial{Coeffs: d}
}

// MonotoneIncreasingOn reports whether the polynomial is non-decreasing over
// [lo, hi], checked by sampling the derivative at 256 points. The paper's
// Fig. 4 conclusion is that CPI "increases monotonously with the job
// execution time" over the observed range.
func (p Polynomial) MonotoneIncreasingOn(lo, hi float64) bool {
	if hi < lo {
		lo, hi = hi, lo
	}
	d := p.Derivative()
	const samples = 256
	for i := 0; i <= samples; i++ {
		x := lo + (hi-lo)*float64(i)/samples
		if d.Eval(x) < -1e-9 {
			return false
		}
	}
	return true
}

// String renders the polynomial in increasing-power form, e.g.
// "0.98 + 0.12*x + 0.034*x^2".
func (p Polynomial) String() string {
	if len(p.Coeffs) == 0 {
		return "0"
	}
	var b strings.Builder
	for i, c := range p.Coeffs {
		if i > 0 {
			if c >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				c = -c
			}
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%.4g", c)
		case 1:
			fmt.Fprintf(&b, "%.4g*x", c)
		default:
			fmt.Fprintf(&b, "%.4g*x^%d", c, i)
		}
	}
	return b.String()
}
