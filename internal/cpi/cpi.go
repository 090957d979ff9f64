// Package cpi models the hardware-performance-counter substrate: the
// per-process Cycles-Per-Instruction readings that the paper collects with
// "perf" every 10 seconds and uses as the key performance indicator of big
// data applications (§3.1).
//
// The model reproduces the two properties the paper demonstrates for CPI:
//
//  1. Robustness to benign noise (Fig. 2): resource disturbances below a
//     node's capacity leave saturation at zero, so CPI is unchanged.
//  2. Sensitivity to real contention (Figs. 4-5): when tasks are actually
//     held back (CPU saturation, memory thrash, disk/net stalls, freezes),
//     stall cycles accumulate per retired instruction and CPI rises, which
//     also stretches execution time — hence the tight monotone CPI ↔
//     runtime coupling of Fig. 4 (T = I · CPI · C with I and C fixed).
//
// Concretely, a node running tasks of workload type w at tick t reads
//
//	CPI(t) = base(w, phase mix) · (1 + StallGain·TaskStall(t)) · noise
//
// where TaskStall comes from the cluster simulator's resource accounting.
package cpi

import (
	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

// baseCPI gives the contention-free CPI of each workload's map and reduce
// tasks. CPU-bound code (tight counting loops, classifier math) retires
// instructions efficiently; IO-bound code burns stall cycles on cache
// misses and kernel crossings, so its base CPI is higher.
type baseCPI struct{ mapCPI, reduceCPI float64 }

// The map/reduce gap within a workload is kept modest: the ARIMA threshold
// rules derive the anomaly bar from the largest normal-state residual, and
// the one-tick phase transition is the largest normal-state event — a large
// gap would deafen the detector to real but moderate contention.
var bases = map[string]baseCPI{
	"wordcount": {0.95, 0.99},
	"sort":      {1.55, 1.60},
	"grep":      {1.20, 1.17},
	"bayes":     {0.85, 0.90},
	"tpcds":     {1.30, 1.35},
}

// defaultBase covers unknown workload labels.
var defaultBase = baseCPI{1.2, 1.3}

// StallGain converts one unit of task stall into extra CPI fraction.
const StallGain = 0.9

// NoiseSD is the relative measurement noise of a 10 s CPI sample.
const NoiseSD = 0.015

// Sampler produces per-node CPI samples from cluster state. It remembers
// the last task mix seen on each node: "perf" reads the job's processes,
// and a node that just drained its last task keeps reporting the CPI level
// of the phase it was in rather than snapping to an idle baseline — snapped
// samples would put a large artificial residual at the end of every normal
// run and inflate the detector's threshold.
type Sampler struct {
	rng     *stats.RNG
	lastMix map[int][2]int // node ID -> (maps, reduces)
}

// NewSampler returns a Sampler with its own deterministic noise stream.
func NewSampler(rng *stats.RNG) *Sampler {
	return &Sampler{rng: rng, lastMix: make(map[int][2]int)}
}

// baseFor returns the contention-free CPI for a workload given a map/reduce
// task mix. With no tasks it returns the map-phase base (the daemons idle
// at roughly the same CPI, and the detector needs a stable quiescent
// level).
func baseFor(workloadType string, runningMaps, runningReduces int) float64 {
	b, ok := bases[workloadType]
	if !ok {
		b = defaultBase
	}
	total := runningMaps + runningReduces
	if total == 0 {
		return b.mapCPI
	}
	return (b.mapCPI*float64(runningMaps) + b.reduceCPI*float64(runningReduces)) / float64(total)
}

// Sample reads the CPI of the given workload's processes on node n at the
// current tick.
func (s *Sampler) Sample(n *cluster.Node, workloadType string) float64 {
	st := n.State
	maps, reds := st.RunningMaps, st.RunningReduces
	if maps+reds == 0 {
		mix := s.lastMix[n.ID]
		maps, reds = mix[0], mix[1]
	} else {
		s.lastMix[n.ID] = [2]int{maps, reds}
	}
	base := baseFor(workloadType, maps, reds)
	if n.CPIFactor > 0 {
		base *= n.CPIFactor
	}
	v := base * (1 + StallGain*st.TaskStall)
	return v * s.rng.Normal(1, NoiseSD)
}

// RunStatistic reduces a run's CPI samples to the paper's sufficient
// statistic: the 95th percentile ("we employ the 95% percentile of CPI data
// as a sufficient statistics for one run").
func RunStatistic(samples []float64) (float64, error) {
	return stats.Percentile(samples, 95)
}
