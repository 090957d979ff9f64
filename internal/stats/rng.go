package stats

import (
	"math"
	"math/rand"
)

// RNG wraps a deterministic pseudo-random source with the variate generators
// the simulator needs. Every stochastic component in this repository draws
// from an explicitly seeded RNG so that experiments are reproducible
// run-to-run; nothing reads global randomness.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic generator seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent generator from this one, labelled by id.
// Forking lets each node / workload / fault own its own stream so that
// adding one more consumer does not perturb the draws seen by the others.
func (g *RNG) Fork(id int64) *RNG {
	// SplitMix64-style scramble of the parent draw and the id.
	z := uint64(g.r.Int63()) ^ (uint64(id) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Uniform returns a uniform draw in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Normal returns a Gaussian draw with the given mean and standard deviation.
func (g *RNG) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// Bernoulli returns true with probability p.
func (g *RNG) Bernoulli(p float64) bool { return g.r.Float64() < p }

// Poisson returns a Poisson draw with the given mean (Knuth's algorithm for
// small means, normal approximation above 30). The interactive workload uses
// it for per-tick query arrivals.
func (g *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		n := int(math.Round(g.Normal(mean, math.Sqrt(mean))))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= g.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
