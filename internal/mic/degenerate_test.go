package mic

import (
	"errors"
	"testing"
)

// Degenerate-input contract, pinned across every entry point: data
// degeneracy (too few samples, non-finite values) maps to the 0 sentinel at
// the MIC/Batch level and to typed errors at the compute/prepare level;
// structural misuse (length mismatch) panics. Constant and all-ties series
// are *valid* inputs that legitimately score 0 or low — they must never
// error or panic.

func TestDegenerateConstantSeries(t *testing.T) {
	n := 30
	constant := make([]float64, n)
	ramp := make([]float64, n)
	for i := range constant {
		constant[i] = 42.0
		ramp[i] = float64(i)
	}
	// A constant series carries no information: MIC 0, no error anywhere.
	if got := MIC(constant, ramp); got != 0 {
		t.Errorf("MIC(const, ramp) = %v, want 0", got)
	}
	if got := MIC(constant, constant); got != 0 {
		t.Errorf("MIC(const, const) = %v, want 0", got)
	}
	if r, err := compute(constant, ramp); err != nil || r.MIC != 0 {
		t.Errorf("compute(const, ramp) = %+v, %v", r, err)
	}
	p, err := prepare(constant)
	if err != nil {
		t.Fatalf("prepare(const) err = %v, want nil (constant data is valid)", err)
	}
	pr, err := prepare(ramp)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ComputePrepared(p, pr, nil); err != nil || r.MIC != 0 {
		t.Errorf("ComputePrepared(const, ramp) = %+v, %v", r, err)
	}
	b, err := NewBatch([][]float64{constant, ramp}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.prepared[0] == nil {
		t.Error("batch left the constant metric unprepared, want it prepared")
	}
	if got := b.Score(0, 1); got != 0 {
		t.Errorf("batch Score(const, ramp) = %v, want 0", got)
	}
}

func TestDegenerateTwoPointSeries(t *testing.T) {
	two := []float64{1, 2}
	// MIC: 0 sentinel, silently.
	if got := MIC(two, two); got != 0 {
		t.Errorf("MIC(2-point) = %v, want 0", got)
	}
	// compute/prepare: the typed error.
	if _, err := compute(two, two); !errors.Is(err, errTooFewSamples) {
		t.Errorf("compute(2-point) err = %v, want errTooFewSamples", err)
	}
	if _, err := prepare(two); !errors.Is(err, errTooFewSamples) {
		t.Errorf("prepare(2-point) err = %v, want errTooFewSamples", err)
	}
	// Batch: the metric slot is left unprepared, pairs score 0.
	ramp := []float64{1, 2}
	b, err := NewBatch([][]float64{two, ramp}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if b.prepared[0] != nil {
		t.Error("batch prepared a 2-point metric, want a nil slot")
	}
	if got := b.Score(0, 1); got != 0 {
		t.Errorf("batch Score over 2-point metrics = %v, want 0", got)
	}
}

func TestDegenerateAllTies(t *testing.T) {
	// Every value duplicated many times: a valid, heavily tied input. The
	// pair is perfectly coupled at tie-group granularity, so the score must
	// be high and identical across entry points.
	n := 32
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i / 8) // 4 distinct values, 8 copies each
		ys[i] = 2 * xs[i]
	}
	want := MIC(xs, ys)
	if want < 0.5 {
		t.Errorf("MIC(tied coupled) = %v, want >= 0.5", want)
	}
	px, err := prepare(xs)
	if err != nil {
		t.Fatal(err)
	}
	py, err := prepare(ys)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ComputePrepared(px, py, nil); err != nil || r.MIC != want {
		t.Errorf("ComputePrepared(ties) = %+v, %v; want MIC %v", r, err, want)
	}
	b, err := NewBatch([][]float64{xs, ys}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Score(0, 1); got != want {
		t.Errorf("batch Score(ties) = %v, want %v", got, want)
	}
}
