package workload

import (
	"fmt"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

// queryTemplate is one of the 8 TPC-DS query shapes run in mixed mode.
// Interactive queries compile to small MapReduce jobs (Hive over Hadoop in
// the paper's stack), so a template is a miniature job profile plus a
// relative arrival weight.
type queryTemplate struct {
	name    string
	maps    int
	reduces int
	mapSpec cluster.TaskSpec
	redSpec cluster.TaskSpec
	weight  float64
}

// tpcdsTemplates models eight queries with varied scan/join/aggregate
// character: q1–q3 scan-heavy, q4–q6 join-heavy (shuffle), q7–q8
// aggregation (CPU). The character lives only in the footprints: a TPC-DS
// run has one operation context, and nothing trains per query class.
var tpcdsTemplates = []queryTemplate{
	{"q1", 4, 1, cluster.TaskSpec{CPUWork: 10, DiskReadMB: 48, NetOutMB: 2, MemoryMB: 300, NominalSeconds: 16}, cluster.TaskSpec{CPUWork: 5, DiskWriteMB: 4, NetInMB: 6, MemoryMB: 280, NominalSeconds: 8}, 1.4},
	{"q2", 6, 1, cluster.TaskSpec{CPUWork: 12, DiskReadMB: 56, NetOutMB: 3, MemoryMB: 320, NominalSeconds: 18}, cluster.TaskSpec{CPUWork: 6, DiskWriteMB: 6, NetInMB: 10, MemoryMB: 300, NominalSeconds: 10}, 1.2},
	{"q3", 3, 1, cluster.TaskSpec{CPUWork: 8, DiskReadMB: 40, NetOutMB: 2, MemoryMB: 260, NominalSeconds: 14}, cluster.TaskSpec{CPUWork: 4, DiskWriteMB: 3, NetInMB: 5, MemoryMB: 240, NominalSeconds: 7}, 1.5},
	{"q4", 5, 2, cluster.TaskSpec{CPUWork: 9, DiskReadMB: 44, NetOutMB: 24, MemoryMB: 420, NominalSeconds: 20}, cluster.TaskSpec{CPUWork: 8, DiskWriteMB: 16, NetInMB: 36, MemoryMB: 520, NominalSeconds: 16}, 1.0},
	{"q5", 6, 2, cluster.TaskSpec{CPUWork: 11, DiskReadMB: 52, NetOutMB: 30, MemoryMB: 460, NominalSeconds: 22}, cluster.TaskSpec{CPUWork: 9, DiskWriteMB: 20, NetInMB: 44, MemoryMB: 560, NominalSeconds: 18}, 0.9},
	{"q6", 4, 2, cluster.TaskSpec{CPUWork: 8, DiskReadMB: 36, NetOutMB: 20, MemoryMB: 400, NominalSeconds: 18}, cluster.TaskSpec{CPUWork: 7, DiskWriteMB: 12, NetInMB: 28, MemoryMB: 480, NominalSeconds: 14}, 1.0},
	{"q7", 5, 1, cluster.TaskSpec{CPUWork: 26, DiskReadMB: 40, NetOutMB: 6, MemoryMB: 380, NominalSeconds: 24}, cluster.TaskSpec{CPUWork: 16, DiskWriteMB: 6, NetInMB: 12, MemoryMB: 360, NominalSeconds: 14}, 0.8},
	{"q8", 4, 1, cluster.TaskSpec{CPUWork: 22, DiskReadMB: 36, NetOutMB: 5, MemoryMB: 360, NominalSeconds: 22}, cluster.TaskSpec{CPUWork: 14, DiskWriteMB: 5, NetInMB: 10, MemoryMB: 340, NominalSeconds: 12}, 0.9},
}

// Session drives the interactive TPC-DS mix on a cluster: each tick it
// submits a Poisson number of queries drawn from the 8 templates, as the
// paper's "8 queries run in a mixed mode".
type Session struct {
	cluster *cluster.Cluster
	rng     *stats.RNG
	// RatePerTick is the mean number of query arrivals per 10 s tick.
	RatePerTick float64
	jitter      float64
	totalWeight float64
	submitted   []*cluster.Job
}

// NewSession creates an interactive session against c. ratePerTick ~1.0
// keeps a 4-slave cluster moderately loaded; the Overload fault multiplies
// it.
func NewSession(c *cluster.Cluster, rng *stats.RNG, ratePerTick float64) *Session {
	s := &Session{cluster: c, rng: rng, RatePerTick: ratePerTick, jitter: 0.08}
	for _, q := range tpcdsTemplates {
		s.totalWeight += q.weight
	}
	return s
}

// Tick submits this tick's query arrivals. Call once per cluster tick,
// before cluster.Step.
func (s *Session) Tick() {
	n := s.rng.Poisson(s.RatePerTick)
	for i := 0; i < n; i++ {
		s.SubmitQuery()
	}
}

// SubmitQuery submits one randomly chosen query and returns its job.
func (s *Session) SubmitQuery() *cluster.Job {
	q := s.pick()
	spec := s.instantiate(q)
	j := s.cluster.Submit(spec)
	s.submitted = append(s.submitted, j)
	return j
}

// CompletedDurations returns the tick durations of finished queries.
func (s *Session) CompletedDurations() []float64 {
	var out []float64
	for _, j := range s.submitted {
		if d := j.DurationTicks(); d >= 0 {
			out = append(out, float64(d))
		}
	}
	return out
}

func (s *Session) pick() queryTemplate {
	r := s.rng.Uniform(0, s.totalWeight)
	for _, q := range tpcdsTemplates {
		if r < q.weight {
			return q
		}
		r -= q.weight
	}
	return tpcdsTemplates[len(tpcdsTemplates)-1]
}

func (s *Session) instantiate(q queryTemplate) cluster.JobSpec {
	jit := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * s.rng.Uniform(1-s.jitter, 1+s.jitter)
	}
	jitSpec := func(t cluster.TaskSpec) cluster.TaskSpec {
		return cluster.TaskSpec{
			CPUWork:        jit(t.CPUWork),
			DiskReadMB:     jit(t.DiskReadMB),
			DiskWriteMB:    jit(t.DiskWriteMB),
			NetInMB:        jit(t.NetInMB),
			NetOutMB:       jit(t.NetOutMB),
			MemoryMB:       jit(t.MemoryMB),
			NominalSeconds: jit(t.NominalSeconds),
		}
	}
	spec := cluster.JobSpec{
		Name:        fmt.Sprintf("tpcds-%s", q.name),
		Workload:    string(TPCDS),
		Interactive: true,
		InputMB:     float64(q.maps) * cluster.BlockSizeMB,
	}
	for i := 0; i < q.maps; i++ {
		spec.MapTasks = append(spec.MapTasks, jitSpec(q.mapSpec))
	}
	for i := 0; i < q.reduces; i++ {
		spec.ReduceTasks = append(spec.ReduceTasks, jitSpec(q.redSpec))
	}
	return spec
}
