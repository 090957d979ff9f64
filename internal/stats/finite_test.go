package stats

import (
	"errors"
	"math"
	"testing"
)

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2, 3}) {
		t.Fatal("finite slice reported non-finite")
	}
	if !AllFinite(nil) {
		t.Fatal("empty slice should be finite")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if AllFinite([]float64{1, bad, 3}) {
			t.Fatalf("slice containing %v reported finite", bad)
		}
	}
}

func TestDropNonFinite(t *testing.T) {
	in := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)}
	out := DropNonFinite(in)
	want := []float64{1, 2, 3}
	if len(out) != len(want) {
		t.Fatalf("got %v, want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v, want %v", out, want)
		}
	}
	// Already-finite input is returned unchanged (same backing array).
	clean := []float64{4, 5}
	if got := DropNonFinite(clean); &got[0] != &clean[0] {
		t.Fatal("finite input should be returned as-is")
	}
}

func TestPearsonNonFinite(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1, math.NaN(), 3, 4}
	r, err := Pearson(xs, ys)
	if !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite", err)
	}
	if r != 0 {
		t.Fatalf("sentinel = %v, want 0", r)
	}
	if _, err := Pearson(ys, xs); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("err = %v, want ErrNonFinite for NaN in xs", err)
	}
}
