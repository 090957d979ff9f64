package mic

import (
	"math"
	"testing"
)

func TestDecayedFirstScoreExact(t *testing.T) {
	d := NewDecayed(0.25)
	if _, ok := d.Value(); ok {
		t.Fatalf("empty estimator claims a value")
	}
	d.Add(0.8)
	v, ok := d.Value()
	if !ok || v != 0.8 {
		t.Fatalf("Value after first Add = %v, %v; want 0.8 (bias-corrected)", v, ok)
	}
	if d.N() != 1 {
		t.Fatalf("N = %d, want 1", d.N())
	}
}

func TestDecayedTracksShiftedLevel(t *testing.T) {
	d := NewDecayed(0.25)
	for i := 0; i < 40; i++ {
		d.Add(0.9)
	}
	for i := 0; i < 40; i++ {
		d.Add(0.3)
	}
	v, _ := d.Value()
	if math.Abs(v-0.3) > 0.001 {
		t.Fatalf("estimate %v after level shift, want ~0.3 (recent windows dominate)", v)
	}
}

func TestDecayedIgnoresNonFinite(t *testing.T) {
	d := NewDecayed(0.5)
	d.Add(0.6)
	d.Add(math.NaN())
	d.Add(math.Inf(-1))
	if v, _ := d.Value(); v != 0.6 {
		t.Fatalf("non-finite scores moved the estimate to %v", v)
	}
	if d.N() != 1 {
		t.Fatalf("non-finite scores counted: N = %d", d.N())
	}
}

func TestDecayedResetRestore(t *testing.T) {
	d := NewDecayed(0.25)
	d.Add(0.5)
	d.Reset()
	if _, ok := d.Value(); ok || d.N() != 0 {
		t.Fatalf("Reset left state: N=%d", d.N())
	}
	d.Restore(0.42, 7)
	if v, _ := d.Value(); v != 0.42 {
		t.Fatalf("restored estimate %v, want 0.42", v)
	}
	if d.N() != 7 {
		t.Fatalf("restored N = %d, want 7", d.N())
	}
	d.Restore(math.NaN(), 3)
	if _, ok := d.Value(); ok {
		t.Fatalf("NaN restore produced a value")
	}
}

func TestDecayedAlphaSanitised(t *testing.T) {
	for _, alpha := range []float64{0, -1, 2, math.NaN()} {
		d := NewDecayed(alpha)
		d.Add(1)
		if v, _ := d.Value(); v != 1 {
			t.Fatalf("alpha %v: first estimate %v, want 1", alpha, v)
		}
	}
}
