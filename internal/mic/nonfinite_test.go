package mic

import (
	"errors"
	"math"
	"testing"
)

func TestComputeNonFinite(t *testing.T) {
	xs := make([]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) * 2
	}
	cases := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, bad := range cases {
		corrupted := append([]float64(nil), ys...)
		corrupted[7] = bad
		if _, err := compute(xs, corrupted); !errors.Is(err, errNonFinite) {
			t.Fatalf("compute with %v in ys: err = %v, want errNonFinite", bad, err)
		}
		if _, err := compute(corrupted, xs); !errors.Is(err, errNonFinite) {
			t.Fatalf("compute with %v in xs: err = %v, want errNonFinite", bad, err)
		}
	}
}

func TestMICNonFiniteSentinel(t *testing.T) {
	xs := make([]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i)
	}
	ys[3] = math.NaN()
	if got := MIC(xs, ys); got != 0 {
		t.Fatalf("MIC over NaN input = %v, want the 0 sentinel", got)
	}
	// A NaN score must never escape MIC regardless of input.
	if got := MIC(xs, xs); math.IsNaN(got) {
		t.Fatal("MIC returned NaN on clean input")
	}
}
