// cpikpi demonstrates why the paper promotes CPI to the key performance
// indicator of big data applications (§3.1, Figs. 2 and 4):
//
//   - a benign disturbance (30 % extra CPU utilisation, below capacity)
//     moves neither the execution time nor the CPI — the property that lets
//     the detector ignore system noise;
//   - real contention (a CPU hog beyond capacity) stretches the execution
//     time and raises the CPI together, monotonically with intensity —
//     because T = I · CPI · C with I and C fixed.
//
// Run with: go run ./examples/cpikpi
package main

import (
	"fmt"
	"log"

	"invarnetx"
)

// hog is a run-long CPU load of fixed intensity.
type hog struct{ cores float64 }

func (h *hog) Apply(tick int, n *invarnetx.Node, eff *invarnetx.ClusterEffects) {
	eff.Extra.CPU += h.cores
}

func main() {
	// run executes one Wordcount job with the given extra CPU load on
	// every slave and reports (duration ticks, 95th-percentile CPI).
	run := func(cores float64, seed int64) (int, float64) {
		c := invarnetx.NewCluster(4, seed)
		if cores > 0 {
			for _, n := range c.Slaves() {
				n.Attach(&hog{cores: cores})
			}
		}
		rng := invarnetx.NewRNG(seed + 100)
		sampler := invarnetx.NewCPISampler(rng.Fork(1))
		spec := invarnetx.NewBatchJob(invarnetx.Wordcount, invarnetx.WorkloadParams{
			InputMB: 6 * 1024, RNG: rng.Fork(2),
		})
		job := c.Submit(spec)
		var cpis []float64
		err := c.RunUntilDone(job, 4000, func(tick int) {
			cpis = append(cpis, sampler.Sample(c.Slaves()[0], "wordcount"))
		})
		if err != nil {
			log.Fatal(err)
		}
		p95, err := invarnetx.CPIRunStatistic(cpis)
		if err != nil {
			log.Fatal(err)
		}
		return job.DurationTicks(), p95
	}

	baseTicks, baseCPI := run(0, 1)
	fmt.Printf("baseline:             %3d ticks, p95 CPI %.3f\n", baseTicks, baseCPI)

	// Benign: 30% of 8 cores = 2.4 extra cores, node stays unsaturated.
	t, c := run(2.4, 1)
	fmt.Printf("benign 30%% noise:     %3d ticks, p95 CPI %.3f   <- Fig 2: unaffected\n", t, c)

	// Real contention at rising intensity: CPI and duration rise together.
	fmt.Println("\nrising contention (Fig 4: CPI tracks execution time):")
	for _, cores := range []float64{6, 9, 12, 15} {
		t, c := run(cores, 1)
		fmt.Printf("  hog %4.1f cores:     %3d ticks, p95 CPI %.3f\n", cores, t, c)
	}
	fmt.Println("\nCPI rises monotonically with execution time under real contention,")
	fmt.Println("but ignores sub-capacity noise — exactly the KPI property §3.1 needs.")
}
