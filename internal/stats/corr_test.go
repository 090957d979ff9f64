package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(r, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEq(r, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Errorf("Pearson with constant series = %v, want 0", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err != ErrLengthMismatch {
		t.Errorf("err = %v, want ErrLengthMismatch", err)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("Pearson of single pair should error")
	}
}

func TestAutocorrelation(t *testing.T) {
	// White noise should have near-zero ACF beyond lag 0.
	rng := NewRNG(1)
	xs := make([]float64, 4000)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
	}
	acf, err := Autocorrelation(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 {
		t.Errorf("ACF(0) = %v, want 1", acf[0])
	}
	for lag := 1; lag <= 5; lag++ {
		if math.Abs(acf[lag]) > 0.06 {
			t.Errorf("white-noise ACF(%d) = %v, want ~0", lag, acf[lag])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with phi=0.8: ACF(k) ~= 0.8^k.
	rng := NewRNG(2)
	xs := make([]float64, 20000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + rng.Normal(0, 1)
	}
	acf, err := Autocorrelation(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		want := math.Pow(0.8, float64(k))
		if math.Abs(acf[k]-want) > 0.05 {
			t.Errorf("AR(1) ACF(%d) = %v, want ~%v", k, acf[k], want)
		}
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	acf, err := Autocorrelation([]float64{3, 3, 3, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Errorf("constant ACF = %v", acf)
	}
}

func TestAutocovarianceErrors(t *testing.T) {
	if _, err := Autocovariance(nil, 0); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	if _, err := Autocovariance([]float64{1, 2}, 2); err == nil {
		t.Error("maxLag >= n should error")
	}
}

// Property: Pearson correlation is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		half := len(raw) / 2
		xs, ys := raw[:half], raw[half:2*half]
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e8 {
				return true
			}
		}
		r1, err1 := Pearson(xs, ys)
		r2, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(r1, r2, 1e-9) && r1 >= -1-1e-9 && r1 <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
