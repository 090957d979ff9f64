package stats

import (
	"math"
	"strings"
	"testing"
)

func TestPolyFitExactQuadratic(t *testing.T) {
	// y = 1 + 2x + 3x^2 recovered from noiseless samples.
	var xs, ys []float64
	for i := -5; i <= 5; i++ {
		x := float64(i)
		xs = append(xs, x)
		ys = append(ys, 1+2*x+3*x*x)
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(p.Coeffs[i], want[i], 1e-6) {
			t.Errorf("coeff[%d] = %v, want %v", i, p.Coeffs[i], want[i])
		}
	}
}

func TestPolyFitDegreeZero(t *testing.T) {
	p, err := PolyFit([]float64{1, 2, 3}, []float64{4, 6, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p.Coeffs[0], 6, 1e-9) {
		t.Errorf("constant fit = %v, want 6 (mean)", p.Coeffs[0])
	}
}

func TestPolyFitErrors(t *testing.T) {
	if _, err := PolyFit([]float64{1}, []float64{1, 2}, 1); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, -1); err == nil {
		t.Error("negative degree should error")
	}
	if _, err := PolyFit([]float64{1, 2}, []float64{1, 2}, 5); err == nil {
		t.Error("too few points should error")
	}
}

func TestPolynomialEvalHorner(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, -2, 0.5}}
	// 1 - 2*3 + 0.5*9 = -0.5
	if got := p.Eval(3); !almostEq(got, -0.5, 1e-12) {
		t.Errorf("Eval(3) = %v, want -0.5", got)
	}
}

func TestDerivative(t *testing.T) {
	p := Polynomial{Coeffs: []float64{5, 3, 2}} // 5 + 3x + 2x^2
	d := p.Derivative()                         // 3 + 4x
	if len(d.Coeffs) != 2 || d.Coeffs[0] != 3 || d.Coeffs[1] != 4 {
		t.Errorf("Derivative = %v", d.Coeffs)
	}
	c := Polynomial{Coeffs: []float64{7}}
	if dc := c.Derivative(); dc.Eval(10) != 0 {
		t.Error("derivative of constant should be 0")
	}
}

func TestMonotoneIncreasingOn(t *testing.T) {
	inc := Polynomial{Coeffs: []float64{0, 1, 1}} // x + x^2, increasing for x >= 0
	if !inc.MonotoneIncreasingOn(0, 10) {
		t.Error("x + x^2 should be monotone increasing on [0,10]")
	}
	if inc.MonotoneIncreasingOn(-10, 0) {
		t.Error("x + x^2 is not monotone increasing on [-10,0]")
	}
	// Reversed bounds are normalised.
	if !inc.MonotoneIncreasingOn(10, 0) {
		t.Error("reversed bounds should behave like (0,10)")
	}
}

func TestPolynomialString(t *testing.T) {
	p := Polynomial{Coeffs: []float64{1, -2, 3}}
	s := p.String()
	if !strings.Contains(s, "x^2") || !strings.Contains(s, " - 2*x") {
		t.Errorf("String() = %q", s)
	}
	if (Polynomial{}).String() != "0" {
		t.Errorf("empty polynomial String() = %q, want 0", (Polynomial{}).String())
	}
}

func TestPolyFitNoisyQuadraticShape(t *testing.T) {
	// The Fig. 4 use case: noisy monotone quadratic-ish data must produce a
	// fit that is monotone increasing over the data range.
	rng := NewRNG(6)
	var xs, ys []float64
	for i := 0; i < 200; i++ {
		x := rng.Uniform(1, 3)
		xs = append(xs, x)
		ys = append(ys, 0.5+0.8*x+0.2*x*x+rng.Normal(0, 0.05))
	}
	p, err := PolyFit(xs, ys, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !p.MonotoneIncreasingOn(1, 3) {
		t.Errorf("fit %v not monotone increasing on data range", p)
	}
	var ss float64
	for i, x := range xs {
		d := p.Eval(x) - ys[i]
		ss += d * d
	}
	// The noise has sd 0.05 over a signal spanning ~4 units.
	if rmse := math.Sqrt(ss / float64(len(xs))); rmse > 0.1 {
		t.Errorf("RMSE = %v, want close to the noise sd 0.05", rmse)
	}
}
