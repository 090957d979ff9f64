package arx

import (
	"math"
	"testing"

	"invarnetx/internal/stats"
)

// genARX produces a coupled pair: y driven by u through known dynamics.
func genARX(rng *stats.RNG, n int) (u, y []float64) {
	u = make([]float64, n)
	y = make([]float64, n)
	for t := 0; t < n; t++ {
		u[t] = rng.Uniform(0, 1)
	}
	for t := 2; t < n; t++ {
		y[t] = 0.5*y[t-1] + 0.8*u[t-1] + 0.3 + rng.Normal(0, 0.01)
	}
	return u, y
}

func TestFitRecoversCoefficients(t *testing.T) {
	rng := stats.NewRNG(300)
	u, y := genARX(rng, 3000)
	m, err := fit(u, y, Order{N: 1, M: 0, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.A[0]-0.5) > 0.05 {
		t.Errorf("A[0] = %v, want ~0.5", m.A[0])
	}
	if math.Abs(m.B[0]-0.8) > 0.05 {
		t.Errorf("B[0] = %v, want ~0.8", m.B[0])
	}
	if math.Abs(m.Intercept-0.3) > 0.05 {
		t.Errorf("Intercept = %v, want ~0.3", m.Intercept)
	}
	if m.Fitness < 0.9 {
		t.Errorf("Fitness = %v, want ~1 for near-noiseless system", m.Fitness)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fit([]float64{1, 2}, []float64{1}, Order{}); err == nil {
		t.Error("length mismatch should error")
	}
	short := []float64{1, 2, 3}
	if _, err := fit(short, short, Order{N: 1}); err != ErrTooShort {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
	u, y := genARX(stats.NewRNG(1), 100)
	if _, err := fit(u, y, Order{N: -1}); err == nil {
		t.Error("negative order should error")
	}
}

func TestPredictAlignment(t *testing.T) {
	rng := stats.NewRNG(301)
	u, y := genARX(rng, 500)
	m, err := fit(u, y, Order{N: 1, M: 1, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	preds, err := m.Predict(u, y)
	if err != nil {
		t.Fatal(err)
	}
	lead := m.Order.N
	if d := m.Order.K + m.Order.M; d > lead {
		lead = d
	}
	if len(preds) != len(y)-lead {
		t.Errorf("len(preds) = %d, want %d", len(preds), len(y)-lead)
	}
}

func TestFitnessDecreasesWithNoise(t *testing.T) {
	rng := stats.NewRNG(302)
	n := 1000
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.Uniform(0, 1)
	}
	mkY := func(noise float64) []float64 {
		y := make([]float64, n)
		for t := 1; t < n; t++ {
			y[t] = 0.9*u[t-1] + rng.Normal(0, noise)
		}
		return y
	}
	clean, err := bestFit(u, mkY(0.01))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := bestFit(u, mkY(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if clean.Fitness <= noisy.Fitness {
		t.Errorf("fitness clean=%v should exceed noisy=%v", clean.Fitness, noisy.Fitness)
	}
}

func TestFitnessConstantOutputIsZero(t *testing.T) {
	u := make([]float64, 100)
	y := make([]float64, 100)
	rng := stats.NewRNG(303)
	for i := range u {
		u[i] = rng.Float64()
		y[i] = 7
	}
	m, err := fit(u, y, Order{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Fitness != 0 {
		t.Errorf("Fitness on constant output = %v, want 0", m.Fitness)
	}
}

func TestBestFitFindsDelay(t *testing.T) {
	rng := stats.NewRNG(304)
	n := 1500
	u := make([]float64, n)
	y := make([]float64, n)
	for i := range u {
		u[i] = rng.Uniform(0, 1)
	}
	for t := 2; t < n; t++ {
		y[t] = u[t-2] + rng.Normal(0, 0.01) // pure delay-2 coupling
	}
	m, err := bestFit(u, y)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fitness < 0.9 {
		t.Errorf("bestFit fitness = %v, want ~1", m.Fitness)
	}
}

func TestAssociationSymmetricBounded(t *testing.T) {
	rng := stats.NewRNG(305)
	u, y := genARX(rng, 400)
	a1 := Association(u, y)
	a2 := Association(y, u)
	if a1 != a2 {
		t.Errorf("Association asymmetric: %v vs %v", a1, a2)
	}
	if a1 < 0 || a1 > 1 {
		t.Errorf("Association out of bounds: %v", a1)
	}
	if a1 < 0.8 {
		t.Errorf("Association of strongly coupled pair = %v, want high", a1)
	}
}

func TestAssociationIndependentLowerThanCoupled(t *testing.T) {
	rng := stats.NewRNG(306)
	n := 400
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = rng.Normal(0, 1)
		b[i] = rng.Normal(0, 1)
	}
	indep := Association(a, b)
	u, y := genARX(rng, n)
	coupled := Association(u, y)
	if indep >= coupled {
		t.Errorf("independent score %v >= coupled score %v", indep, coupled)
	}
}

func TestARXCapturesLinearOnly(t *testing.T) {
	// The documented weakness the paper exploits: a noiseless but strongly
	// non-monotone non-linear coupling that linear ARX fits poorly while
	// remaining a real dependency. Association should be clearly below the
	// near-1 score of a linear coupling at the same noise level.
	rng := stats.NewRNG(307)
	n := 600
	x := make([]float64, n)
	nonlin := make([]float64, n)
	lin := make([]float64, n)
	for i := range x {
		x[i] = rng.Uniform(-1, 1)
		nonlin[i] = math.Sin(6 * math.Pi * x[i])
		lin[i] = 0.7 * x[i]
	}
	sNon := Association(x, nonlin)
	sLin := Association(x, lin)
	if sNon >= sLin-0.2 {
		t.Errorf("ARX association: nonlinear=%v should trail linear=%v by a wide margin", sNon, sLin)
	}
}

func TestOrderString(t *testing.T) {
	if got := (Order{1, 2, 3}).String(); got != "ARX(1,2,3)" {
		t.Errorf("String = %q", got)
	}
}

func TestBestFitTooShort(t *testing.T) {
	xs := []float64{1, 2}
	if _, err := bestFit(xs, xs); err != ErrTooShort {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

var sinkAssoc float64

// BenchmarkARXAssociation times one symmetric ARX association at the
// 30-sample fault-window size: the per-pair cost of the ARX comparator
// (Table 1's Invar-C(ARX) column), the counterpart of internal/mic's
// BenchmarkPairKernel.
func BenchmarkARXAssociation(b *testing.B) {
	rng := stats.NewRNG(2)
	n := 30
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] + rng.Normal(0, 0.1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkAssoc = Association(xs, ys)
	}
}
