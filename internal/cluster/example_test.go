package cluster_test

import (
	"fmt"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// ExampleNew runs one Wordcount job on the simulated five-node Hadoop
// cluster and reports its duration.
func ExampleNew() {
	c := cluster.New(4, 1)
	spec := workload.NewJob(workload.Wordcount, workload.Params{
		InputMB: 4 * 1024,
		RNG:     stats.NewRNG(2),
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
