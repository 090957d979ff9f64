package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveLinearKnown(t *testing.T) {
	a := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	b := []float64{8, -11, -3}
	x, err := solveLinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-9) {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, err := solveLinear(a, []float64{1, 2}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	x, err := solveLinear(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Errorf("x = %v, want [7 3]", x)
	}
}

func TestSolveLinearDoesNotMutate(t *testing.T) {
	a := [][]float64{{2, 0}, {0, 2}}
	b := []float64{2, 4}
	if _, err := solveLinear(a, b); err != nil {
		t.Fatal(err)
	}
	if a[0][0] != 2 || a[1][1] != 2 || b[0] != 2 || b[1] != 4 {
		t.Error("solveLinear mutated its inputs")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// y = 3 + 2x fit from noiseless data must recover coefficients.
	var x [][]float64
	var y []float64
	for i := 0; i < 10; i++ {
		xi := float64(i)
		x = append(x, []float64{1, xi})
		y = append(y, 3+2*xi)
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(beta[0], 3, 1e-6) || !almostEq(beta[1], 2, 1e-6) {
		t.Errorf("beta = %v, want [3 2]", beta)
	}
}

func TestLeastSquaresNoisy(t *testing.T) {
	rng := NewRNG(5)
	var x [][]float64
	var y []float64
	for i := 0; i < 2000; i++ {
		xi := rng.Uniform(-5, 5)
		x = append(x, []float64{1, xi})
		y = append(y, 1.5-0.5*xi+rng.Normal(0, 0.1))
	}
	beta, err := LeastSquares(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(beta[0]-1.5) > 0.02 || math.Abs(beta[1]+0.5) > 0.02 {
		t.Errorf("beta = %v, want ~[1.5 -0.5]", beta)
	}
}

func TestLeastSquaresUnderdetermined(t *testing.T) {
	if _, err := LeastSquares([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("1 observation for 2 coefficients should error")
	}
}

func TestSolveToeplitzMatchesDense(t *testing.T) {
	// r defines a positive-definite symmetric Toeplitz matrix.
	r := []float64{4, 1.5, 0.5, 0.1}
	b := []float64{1, 2, 3, 4}
	n := len(b)
	dense := make([][]float64, n)
	for i := range dense {
		dense[i] = make([]float64, n)
		for j := range dense[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			dense[i][j] = r[d]
		}
	}
	want, err := solveLinear(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SolveToeplitz(r, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-8) {
			t.Errorf("x[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolveToeplitzErrors(t *testing.T) {
	if _, err := SolveToeplitz([]float64{0, 0}, []float64{1, 1}); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	if _, err := SolveToeplitz([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("short autocovariance should error")
	}
	if _, err := SolveToeplitz(nil, nil); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// Property: for random well-conditioned diagonally dominant systems,
// solveLinear produces a solution with small residual.
func TestSolveLinearResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(6)
		a := make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			var rowSum float64
			for j := range a[i] {
				if i != j {
					a[i][j] = rng.Uniform(-1, 1)
					rowSum += math.Abs(a[i][j])
				}
			}
			a[i][i] = rowSum + 1 + rng.Float64() // diagonally dominant
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.Uniform(-10, 10)
		}
		x, err := solveLinear(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i][j] * x[j]
			}
			if math.Abs(s-b[i]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
