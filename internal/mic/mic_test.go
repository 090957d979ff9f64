package mic

import (
	"math"
	"testing"

	"invarnetx/internal/stats"
)

func TestMICLinear(t *testing.T) {
	rng := stats.NewRNG(200)
	n := 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		ys[i] = 2*xs[i] + 1
	}
	score := MIC(xs, ys)
	if score < 0.95 {
		t.Errorf("MIC(noiseless linear) = %v, want ~1", score)
	}
}

func TestMICNonLinearFunctional(t *testing.T) {
	rng := stats.NewRNG(201)
	n := 300
	xs := make([]float64, n)
	par := make([]float64, n)
	sine := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(-1, 1)
		par[i] = xs[i] * xs[i]
		sine[i] = math.Sin(4 * math.Pi * xs[i])
	}
	if s := MIC(xs, par); s < 0.85 {
		t.Errorf("MIC(parabola) = %v, want high", s)
	}
	if s := MIC(xs, sine); s < 0.7 {
		t.Errorf("MIC(sine) = %v, want high", s)
	}
	// Pearson misses the parabola entirely; MIC must not. This is the
	// property the paper's invariant layer depends on.
	r, err := stats.Pearson(xs, par)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.2 {
		t.Errorf("Pearson(parabola) = %v, expected near 0 for this check to be meaningful", r)
	}
}

func TestMICIndependenceLow(t *testing.T) {
	rng := stats.NewRNG(202)
	n := 400
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Normal(0, 1)
		ys[i] = rng.Normal(0, 1)
	}
	score := MIC(xs, ys)
	if score > 0.35 {
		t.Errorf("MIC(independent) = %v, want low", score)
	}
}

func TestMICNoisyLinearBetween(t *testing.T) {
	rng := stats.NewRNG(203)
	n := 300
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		ys[i] = xs[i] + rng.Normal(0, 0.3)
	}
	score := MIC(xs, ys)
	if score < 0.2 || score > 0.85 {
		t.Errorf("MIC(noisy linear) = %v, want moderate", score)
	}
	// Noise must reduce the score relative to noiseless.
	clean := make([]float64, n)
	copy(clean, xs)
	if MIC(xs, clean) <= score {
		t.Error("noiseless copy should score above noisy relationship")
	}
}

func TestMICSymmetry(t *testing.T) {
	rng := stats.NewRNG(204)
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		ys[i] = math.Exp(xs[i]) + rng.Normal(0, 0.05)
	}
	a := MIC(xs, ys)
	b := MIC(ys, xs)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("MIC not symmetric: %v vs %v", a, b)
	}
}

func TestMICBounds(t *testing.T) {
	rng := stats.NewRNG(205)
	for trial := 0; trial < 20; trial++ {
		n := 8 + rng.Intn(200)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Normal(0, 1)
			ys[i] = rng.Normal(0, 1)
		}
		s := MIC(xs, ys)
		if s < 0 || s > 1 {
			t.Fatalf("MIC out of [0,1]: %v (n=%d)", s, n)
		}
	}
}

func TestMICConstantSeries(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	flat := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if s := MIC(xs, flat); s != 0 {
		t.Errorf("MIC against constant = %v, want 0", s)
	}
	if s := MIC(flat, flat); s != 0 {
		t.Errorf("MIC constant-constant = %v, want 0", s)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute([]float64{1, 2}, []float64{1}, DefaultConfig()); err == nil {
		t.Error("length mismatch should error")
	}
	short := []float64{1, 2, 3}
	if _, err := Compute(short, short, DefaultConfig()); err != ErrTooFewSamples {
		t.Errorf("err = %v, want ErrTooFewSamples", err)
	}
}

func TestComputeDefaultsApplied(t *testing.T) {
	rng := stats.NewRNG(206)
	n := 100
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		ys[i] = xs[i]
	}
	// Invalid config values must fall back to defaults, not crash.
	r, err := Compute(xs, ys, Config{Alpha: -1, C: 0})
	if err != nil {
		t.Fatal(err)
	}
	if r.MIC < 0.9 {
		t.Errorf("MIC = %v, want ~1", r.MIC)
	}
	if r.B != int(math.Floor(math.Pow(float64(n), 0.6))) {
		t.Errorf("B = %d, want n^0.6", r.B)
	}
	if r.BestGrid[0] < 2 || r.BestGrid[1] < 2 {
		t.Errorf("BestGrid = %v", r.BestGrid)
	}
}

func TestMICDiscreteTies(t *testing.T) {
	// Heavily tied data (integer-valued metrics like thread counts) must
	// not crash and a deterministic mapping must score high.
	rng := stats.NewRNG(207)
	n := 240
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(6))
		ys[i] = 3*xs[i] + 1
	}
	if s := MIC(xs, ys); s < 0.9 {
		t.Errorf("MIC(discrete deterministic) = %v, want high", s)
	}
}

func TestMICMonotoneComparableToLinear(t *testing.T) {
	// A monotone non-linear relationship should score in the same band as
	// a linear one of the same noise level ("equitability" in Reshef).
	rng := stats.NewRNG(208)
	n := 300
	xs := make([]float64, n)
	lin := make([]float64, n)
	cub := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		noise := rng.Normal(0, 0.1)
		lin[i] = xs[i] + noise
		cub[i] = xs[i]*xs[i]*xs[i] + noise
	}
	sl := MIC(xs, lin)
	sc := MIC(xs, cub)
	if math.Abs(sl-sc) > 0.3 {
		t.Errorf("MIC linear=%v vs cubic=%v differ too much at equal noise", sl, sc)
	}
}

func TestEquipartitionRespectesTies(t *testing.T) {
	rv := []float64{1, 1, 1, 1, 2, 2, 3, 3}
	p, err := Prepare(rv, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rowOf, h, ok := p.rowOf[2], p.hq[2], p.rowsOK[2]
	if !ok {
		t.Fatal("equipartition failed")
	}
	// All four 1s must share a row.
	r := rowOf[0]
	for i := 1; i < 4; i++ {
		if rowOf[i] != r {
			t.Errorf("tied values split across rows: %v", rowOf)
		}
	}
	if h <= 0 {
		t.Errorf("entropy = %v, want > 0", h)
	}
}

func TestMICPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MIC with mismatched lengths should panic, not return the 0 sentinel")
		}
	}()
	MIC([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []float64{1, 2, 3})
}

func TestMICZeroSentinelOnlyForDataDegeneracy(t *testing.T) {
	short := []float64{1, 2, 3}
	if s := MIC(short, short); s != 0 {
		t.Errorf("MIC(too few samples) = %v, want 0", s)
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	bad := append([]float64(nil), xs...)
	bad[4] = math.NaN()
	if s := MIC(xs, bad); s != 0 {
		t.Errorf("MIC(non-finite) = %v, want 0", s)
	}
}

func TestMICLargeSampleStability(t *testing.T) {
	// Growing the sample of the same noiseless relationship must not
	// reduce the score materially.
	rng := stats.NewRNG(209)
	make2 := func(n int) ([]float64, []float64) {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Uniform(0, 1)
			ys[i] = math.Sqrt(xs[i])
		}
		return xs, ys
	}
	x1, y1 := make2(100)
	x2, y2 := make2(1000)
	s1, s2 := MIC(x1, y1), MIC(x2, y2)
	if s1 < 0.85 || s2 < 0.85 {
		t.Errorf("MIC sqrt: n=100 → %v, n=1000 → %v, want both high", s1, s2)
	}
}
