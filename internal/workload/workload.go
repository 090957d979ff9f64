// Package workload models the BigDataBench workloads the paper evaluates:
// four batch jobs (Wordcount, Sort, Grep, Naive Bayes) and the interactive
// TPC-DS mix of 8 queries. A workload is a generator of cluster.JobSpec
// values — task counts and per-task CPU/disk/network/memory footprints —
// with small run-to-run jitter, so that repeated runs of the same type give
// the invariant layer stable-but-not-identical metric associations.
//
// The resource profiles are deliberately distinct per type (Wordcount is
// CPU-bound, Sort shuffles everything over the network, Grep is read-bound,
// Bayes is compute-heavy on both phases): this is what makes the paper's
// "operation context" matter, and what the no-context ablation in Fig. 9/10
// loses.
package workload

import (
	"fmt"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

// Type names a workload. The string value is the paper's operation-context
// "type" field, stored in every profile file and signature.
type Type string

// The five evaluated workloads.
const (
	Wordcount Type = "wordcount"
	Sort      Type = "sort"
	Grep      Type = "grep"
	Bayes     Type = "bayes"
	TPCDS     Type = "tpcds"
)

// Types returns every workload type.
func Types() []Type { return []Type{Wordcount, Sort, Grep, Bayes, TPCDS} }

// IsInteractive reports whether the type is the interactive TPC-DS mix.
func IsInteractive(t Type) bool { return t == TPCDS }

// Valid reports whether t names a known workload.
func Valid(t Type) bool {
	for _, k := range Types() {
		if k == t {
			return true
		}
	}
	return false
}

// profile is the nominal per-64MB-split task footprint of a workload.
type profile struct {
	mapCPU, mapRead, mapWrite, mapNetOut float64 // per map task
	mapMem, mapSeconds                   float64
	redCPU, redWrite, redNetIn           float64 // per reduce task
	redMem, redSeconds                   float64
	reducesPerGB                         float64
}

// profiles encode the qualitative behaviour of each batch workload.
var profiles = map[Type]profile{
	// Wordcount: parse-heavy maps, tiny intermediate data. Four concurrent
	// maps occupy ~60 % of an 8-core node, leaving the headroom that makes
	// the paper's 30 % CPU disturbance benign (Fig. 2).
	Wordcount: {
		mapCPU: 34, mapRead: 64, mapWrite: 4, mapNetOut: 3,
		mapMem: 380, mapSeconds: 34,
		redCPU: 18, redWrite: 10, redNetIn: 12,
		redMem: 420, redSeconds: 22,
		reducesPerGB: 1.0,
	},
	// Sort: IO-dominated; all input flows through shuffle to reducers.
	Sort: {
		mapCPU: 14, mapRead: 64, mapWrite: 64, mapNetOut: 64,
		mapMem: 520, mapSeconds: 30,
		redCPU: 12, redWrite: 96, redNetIn: 96,
		redMem: 640, redSeconds: 36,
		reducesPerGB: 2.0,
	},
	// Grep: scan-heavy maps, negligible output.
	Grep: {
		mapCPU: 22, mapRead: 64, mapWrite: 1, mapNetOut: 0.5,
		mapMem: 300, mapSeconds: 22,
		redCPU: 4, redWrite: 2, redNetIn: 2,
		redMem: 260, redSeconds: 8,
		reducesPerGB: 0.5,
	},
	// Naive Bayes training: heavy compute in both phases.
	Bayes: {
		mapCPU: 46, mapRead: 64, mapWrite: 10, mapNetOut: 8,
		mapMem: 700, mapSeconds: 44,
		redCPU: 50, redWrite: 16, redNetIn: 24,
		redMem: 780, redSeconds: 34,
		reducesPerGB: 1.0,
	},
}

// Params configures job generation.
type Params struct {
	// InputMB is the job input size; the paper generates 15 GB with the
	// BigDataBench tool. Defaults to 15*1024 when zero.
	InputMB float64
	// Jitter is the relative run-to-run variation of task footprints
	// (default 0.08).
	Jitter float64
	// RNG drives the jitter; required.
	RNG *stats.RNG
}

func (p *Params) defaults() {
	if p.InputMB <= 0 {
		p.InputMB = 15 * 1024
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.08
	}
	if p.RNG == nil {
		p.RNG = stats.NewRNG(1)
	}
}

// NewJob builds a batch JobSpec for workload t. It panics on TPCDS (use
// NewSession) and unknown types — both are programming errors, not runtime
// conditions.
func NewJob(t Type, p Params) cluster.JobSpec {
	prof, ok := profiles[t]
	if !ok {
		panic(fmt.Sprintf("workload: NewJob on non-batch type %q", t))
	}
	p.defaults()
	jit := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return v * p.RNG.Uniform(1-p.Jitter, 1+p.Jitter)
	}
	nMaps := int(p.InputMB / cluster.BlockSizeMB)
	if nMaps < 1 {
		nMaps = 1
	}
	nReduces := int(p.InputMB / 1024 * prof.reducesPerGB)
	if nReduces < 1 {
		nReduces = 1
	}
	spec := cluster.JobSpec{
		Name:     string(t),
		Workload: string(t),
		InputMB:  p.InputMB,
	}
	for i := 0; i < nMaps; i++ {
		spec.MapTasks = append(spec.MapTasks, cluster.TaskSpec{
			CPUWork:        jit(prof.mapCPU),
			DiskReadMB:     jit(prof.mapRead),
			DiskWriteMB:    jit(prof.mapWrite),
			NetOutMB:       jit(prof.mapNetOut),
			MemoryMB:       jit(prof.mapMem),
			NominalSeconds: jit(prof.mapSeconds),
		})
	}
	for i := 0; i < nReduces; i++ {
		spec.ReduceTasks = append(spec.ReduceTasks, cluster.TaskSpec{
			CPUWork:        jit(prof.redCPU),
			DiskWriteMB:    jit(prof.redWrite),
			NetInMB:        jit(prof.redNetIn),
			MemoryMB:       jit(prof.redMem),
			NominalSeconds: jit(prof.redSeconds),
		})
	}
	return spec
}
