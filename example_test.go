package invarnetx_test

import (
	"fmt"

	"invarnetx"
)

// ExampleMIC shows the association measure at the heart of the invariant
// layer: a noiseless non-linear relationship scores near 1 while
// independent noise scores low — the property that lets InvarNet-X see
// couplings that linear ARX invariants miss.
func ExampleMIC() {
	rng := invarnetx.NewRNG(1)
	n := 300
	x := make([]float64, n)
	parabola := make([]float64, n)
	noise := make([]float64, n)
	for i := range x {
		x[i] = rng.Uniform(-1, 1)
		parabola[i] = x[i] * x[i]
		noise[i] = rng.Normal(0, 1)
	}
	fmt.Printf("parabola: %.2f\n", invarnetx.MIC(x, parabola))
	fmt.Printf("independent below 0.4: %v\n", invarnetx.MIC(x, noise) < 0.4)
	// Output:
	// parabola: 1.00
	// independent below 0.4: true
}

// ExampleNewCluster runs one Wordcount job on the simulated five-node
// Hadoop cluster and reports its duration.
func ExampleNewCluster() {
	c := invarnetx.NewCluster(4, 1)
	spec := invarnetx.NewBatchJob(invarnetx.Wordcount, invarnetx.WorkloadParams{
		InputMB: 4 * 1024,
		RNG:     invarnetx.NewRNG(2),
	})
	job := c.Submit(spec)
	if err := c.RunUntilDone(job, 1000, nil); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("job finished: %v\n", job.Done())
	fmt.Printf("took at least 10 ticks: %v\n", job.DurationTicks() >= 10)
	// Output:
	// job finished: true
	// took at least 10 ticks: true
}

// ExampleNew shows the configuration surface of an InvarNet-X system.
func ExampleNew() {
	sys := invarnetx.New(invarnetx.DefaultConfig())
	cfg := sys.Config()
	fmt.Printf("epsilon=%.1f tau=%.1f\n", cfg.Epsilon, cfg.Tau)
	fmt.Printf("signatures stored: %d\n", sys.SignatureCount())
	// Output:
	// epsilon=0.2 tau=0.2
	// signatures stored: 0
}

// ExampleFaultKinds lists the fault set of the paper's evaluation.
func ExampleFaultKinds() {
	kinds := invarnetx.FaultKinds()
	fmt.Printf("%d faults, first: %s, last: %s\n", len(kinds), kinds[0], kinds[len(kinds)-1])
	// Output:
	// 15 faults, first: cpu-hog, last: block-r
}
