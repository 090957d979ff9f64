package mic_test

import (
	"fmt"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// ExampleMIC shows the association measure at the heart of the invariant
// layer: a noiseless non-linear relationship scores near 1 while
// independent noise scores low — the property that lets InvarNet-X see
// couplings that linear ARX invariants miss.
func ExampleMIC() {
	rng := stats.NewRNG(1)
	n := 300
	x := make([]float64, n)
	parabola := make([]float64, n)
	noise := make([]float64, n)
	for i := range x {
		x[i] = rng.Uniform(-1, 1)
		parabola[i] = x[i] * x[i]
		noise[i] = rng.Normal(0, 1)
	}
	fmt.Printf("parabola: %.2f\n", mic.MIC(x, parabola))
	fmt.Printf("independent below 0.4: %v\n", mic.MIC(x, noise) < 0.4)
	// Output:
	// parabola: 1.00
	// independent below 0.4: true
}
