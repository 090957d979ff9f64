package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestSumKahan(t *testing.T) {
	// A sum that loses precision with naive accumulation.
	xs := make([]float64, 0, 10001)
	xs = append(xs, 1e16)
	for i := 0; i < 10000; i++ {
		xs = append(xs, 1.0)
	}
	got := sum(xs)
	if got != 1e16+10000 {
		t.Errorf("sum = %v, want %v", got, 1e16+10000)
	}
}

func TestMean(t *testing.T) {
	m, err := Mean([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m != 2.5 {
		t.Errorf("Mean = %v, want 2.5", m)
	}
	if _, err := Mean(nil); err != ErrEmpty {
		t.Errorf("Mean(nil) err = %v, want ErrEmpty", err)
	}
}

func TestVariance(t *testing.T) {
	v, err := variance([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(v, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", v, 32.0/7.0)
	}
	if _, err := variance([]float64{1}); err == nil {
		t.Error("variance of single sample should error")
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5, -9, 2, 6}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	if mn != -9 || mx != 6 {
		t.Errorf("min/max = %v/%v, want -9/6", mn, mx)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{95, 48},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile(101) should error")
	}
	if _, err := Percentile(xs, -1); err == nil {
		t.Error("Percentile(-1) should error")
	}
	one, err := Percentile([]float64{7}, 95)
	if err != nil || one != 7 {
		t.Errorf("Percentile of singleton = %v, %v", one, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestNormalizeToMin(t *testing.T) {
	out, err := NormalizeToMin([]float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(out[i], want[i], 1e-12) {
			t.Errorf("NormalizeToMin[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := NormalizeToMin([]float64{0, 1}); err == nil {
		t.Error("NormalizeToMin with zero minimum should error")
	}
	if _, err := NormalizeToMin([]float64{-1, 1}); err == nil {
		t.Error("NormalizeToMin with negative minimum should error")
	}
}

func TestMeanAbsAndAbs(t *testing.T) {
	abs := Abs([]float64{-1, 2, -3})
	if abs[0] != 1 || abs[1] != 2 || abs[2] != 3 {
		t.Errorf("Abs = %v", abs)
	}
}

// Property: percentile is bounded by min and max for any sample.
func TestPercentileBoundsProperty(t *testing.T) {
	f := func(raw []float64, pRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p := float64(pRaw) / 255 * 100
		got, err := Percentile(xs, p)
		if err != nil {
			return false
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		return got >= mn-1e-9 && got <= mx+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: variance is non-negative and zero for constant samples.
func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.Abs(v) < 1e6 && !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) < 2 {
			return true
		}
		v, err := variance(xs)
		return err == nil && v >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLjungBoxWhiteNoise(t *testing.T) {
	rng := NewRNG(60)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
	}
	q, p, err := LjungBox(xs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q < 0 {
		t.Errorf("Q = %v", q)
	}
	if p < 0.01 {
		t.Errorf("white noise rejected: p = %v", p)
	}
}

func TestLjungBoxAutocorrelated(t *testing.T) {
	rng := NewRNG(61)
	xs := make([]float64, 500)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.7*xs[i-1] + rng.Normal(0, 1)
	}
	_, p, err := LjungBox(xs, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("AR(1) not rejected as white: p = %v", p)
	}
}

func TestLjungBoxErrors(t *testing.T) {
	if _, _, err := LjungBox([]float64{1, 2, 3}, 0, 0); err == nil {
		t.Error("zero lags should error")
	}
	if _, _, err := LjungBox([]float64{1, 2, 3}, 5, 0); err == nil {
		t.Error("too-short series should error")
	}
}

func TestChiSquaredSurvival(t *testing.T) {
	// Known quantiles: chi2(1): P(X > 3.841) = 0.05; chi2(5): P(X > 11.07) = 0.05.
	cases := []struct {
		x    float64
		k    int
		want float64
	}{
		{3.841, 1, 0.05},
		{11.07, 5, 0.05},
		{15.09, 5, 0.01},
		{0, 3, 1},
	}
	for _, c := range cases {
		got := chiSquaredSurvival(c.x, c.k)
		if math.Abs(got-c.want) > 0.003 {
			t.Errorf("chi2Survival(%v, %d) = %v, want ~%v", c.x, c.k, got, c.want)
		}
	}
}
