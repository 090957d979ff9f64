package cluster_test

import (
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// BenchmarkClusterTick measures the simulator's per-tick cost with a full
// complement of running tasks. An external test package: the job comes from
// workload, which imports cluster.
func BenchmarkClusterTick(b *testing.B) {
	c := cluster.New(4, 1)
	c.Submit(workload.NewJob(workload.Wordcount, workload.Params{InputMB: 15 * 1024, RNG: stats.NewRNG(2)}))
	for i := 0; i < 5; i++ {
		c.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}
