package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	// Forking a child must not perturb the parent stream relative to a
	// parent that forked a child with a different id.
	a := NewRNG(42)
	b := NewRNG(42)
	ca := a.Fork(1)
	cb := b.Fork(2)
	if ca.Float64() == cb.Float64() {
		t.Error("children with different ids should diverge")
	}
	for i := 0; i < 50; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("forking must consume the same parent state regardless of id")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRNG(7)
	xs := make([]float64, 50000)
	for i := range xs {
		xs[i] = rng.Normal(3, 2)
	}
	m := MustMean(xs)
	sd, _ := StdDev(xs)
	if math.Abs(m-3) > 0.05 {
		t.Errorf("mean = %v, want ~3", m)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("sd = %v, want ~2", sd)
	}
}

func TestUniformBounds(t *testing.T) {
	rng := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := rng.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestPoisson(t *testing.T) {
	rng := NewRNG(10)
	for _, mean := range []float64{0.5, 3, 50} {
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			sum += float64(rng.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) sample mean = %v", mean, got)
		}
	}
	if rng.Poisson(0) != 0 || rng.Poisson(-1) != 0 {
		t.Error("non-positive mean must yield 0")
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := NewRNG(12)
	count := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if rng.Bernoulli(0.3) {
			count++
		}
	}
	rate := float64(count) / n
	if math.Abs(rate-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}
