// Package metrics implements the collectl-style collector of the paper's
// prototype: 26 per-node operating-system and process metrics sampled every
// 10 seconds, "not only ... coarse-grained CPU, memory, disk and network
// utilization but also ... fine-grained metrics such as CPU context switch
// per second, memory page faults, etc." (§4).
//
// Each metric is a deterministic function of the cluster simulator's node
// state plus small multiplicative measurement noise. Because most metrics
// are driven by the same latent task activity, metric pairs carry strong
// associations under normal operation — the observable likely invariants —
// and faults that decouple a subsystem break exactly the pairs involving
// that subsystem's metrics.
package metrics

import (
	"fmt"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

// Names lists the 26 collected metrics, index-aligned with sample vectors.
var Names = []string{
	"cpu.user",        // 0: user CPU %
	"cpu.sys",         // 1: system CPU %
	"cpu.idle",        // 2: idle CPU %
	"cpu.iowait",      // 3: IO-wait CPU %
	"cpu.ctxswitch",   // 4: context switches /s
	"cpu.interrupts",  // 5: interrupts /s
	"load.runq",       // 6: run-queue length
	"mem.used",        // 7: MB
	"mem.free",        // 8: MB
	"mem.cached",      // 9: MB
	"mem.pagefaults",  // 10: faults /s
	"mem.swaprate",    // 11: swap pages /s
	"disk.readmb",     // 12: MB/s
	"disk.writemb",    // 13: MB/s
	"disk.iops",       // 14: IO /s
	"disk.util",       // 15: %
	"disk.queue",      // 16: queue length
	"net.rxmb",        // 17: MB/s
	"net.txmb",        // 18: MB/s
	"net.rxpackets",   // 19: packets /s
	"net.txpackets",   // 20: packets /s
	"net.retransmits", // 21: segments /s
	"net.rttms",       // 22: ms
	"proc.count",      // 23: processes
	"proc.threads",    // 24: threads
	"proc.openfds",    // 25: open descriptors
}

// Count is the number of collected metrics (M in the paper; M(M-1)/2 = 325
// candidate association pairs).
const Count = 26

// Collectl is the simulated collectl agent: it samples metric vectors from
// nodes. One Collectl serves a whole cluster; its noise stream is
// deterministic.
type Collectl struct {
	rng *stats.RNG
	// NoiseSD is the relative measurement noise (default 0.008).
	NoiseSD float64
	// FloorScale multiplies the absolute noise floors (default 1).
	FloorScale float64
}

// noiseFloor is the absolute measurement noise per metric: counter
// quantisation, sampling-interval misalignment and background daemons put a
// floor under every reading regardless of magnitude. The floor is what
// makes a throttled subsystem genuinely quiet: without it, even a node
// running at 2 % CPU would still transmit the task-demand signal through
// the collector at full fidelity, and association measures would see
// couplings that a real monitoring stack cannot resolve.
var noiseFloor = [Count]float64{
	0.15,  // cpu.user %
	0.12,  // cpu.sys %
	0.2,   // cpu.idle %
	0.12,  // cpu.iowait %
	9,     // cpu.ctxswitch /s
	6,     // cpu.interrupts /s
	0.045, // load.runq
	11,    // mem.used MB
	11,    // mem.free MB
	6,     // mem.cached MB
	3.5,   // mem.pagefaults /s
	1,     // mem.swaprate
	0.12,  // disk.readmb MB/s
	0.1,   // disk.writemb MB/s
	1.2,   // disk.iops
	0.22,  // disk.util %
	0.03,  // disk.queue
	0.045, // net.rxmb MB/s
	0.045, // net.txmb MB/s
	4,     // net.rxpackets /s
	4,     // net.txpackets /s
	0.15,  // net.retransmits /s
	0.008, // net.rttms
	0.4,   // proc.count
	2.2,   // proc.threads
	3,     // proc.openfds
}

// NewCollectl returns a Collectl drawing noise from rng.
func NewCollectl(rng *stats.RNG) *Collectl {
	return &Collectl{rng: rng, NoiseSD: 0.008, FloorScale: 1}
}

// platformProfile captures how a node's kernel and hardware mix the latent
// drivers into the composite counters. Different kernel versions, IO
// schedulers and interrupt wiring weight these contributions differently,
// so the association *structure* — not just the scale — of a node's metric
// vector is platform-specific. This is what makes the paper's per-node
// operation context necessary: a global invariant set only keeps the pairs
// stable on every platform, and a signature collected on one node
// mis-scores on another (the Figs. 9/10 no-context ablation). Every field
// is a multiplicative factor on the canonical coefficient (1 = canonical).
type platformProfile struct {
	ctxCPU, ctxPkt float64 // context-switch mix
	intPkt, intIO  float64 // interrupt mix
	pfTask, pfCPU  float64 // page-fault mix
	iowThru        float64 // iowait sensitivity to achieved IO
	thrCPU         float64 // worker-pool breathing
	fdNet, fdDisk  float64 // descriptor-table mix
	cacheDisk      float64 // page-cache growth per unit of IO
	sysDisk        float64 // system-time IO-path share
	memHeap        float64 // heap churn visibility in resident memory
}

// platformProfiles is indexed by node ID modulo its length; index 1
// (slave 0, the default fault target) is the canonical all-ones platform.
var platformProfiles = []platformProfile{
	{1.2, 0.6, 1.1, 0.8, 0.7, 1.3, 0.9, 1.3, 0.6, 0.8, 0.8, 1.2, 0.9}, // master (unused by slaves)
	{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},                           // canonical
	{1.7, 0.15, 0.3, 2.1, 1.8, 0.4, 0.45, 1.8, 0.2, 1.9, 1.7, 0.5, 1.6},
	{0.35, 2.2, 1.9, 0.25, 0.5, 1.7, 1.6, 0.3, 2.1, 0.4, 0.4, 1.8, 0.45},
	{1.9, 0.4, 0.6, 1.6, 1.4, 0.25, 0.8, 0.5, 1.5, 1.4, 1.3, 0.7, 2.0},
}

func profileFor(id int) platformProfile {
	return platformProfiles[id%len(platformProfiles)]
}

// Collect samples the 26-metric vector of node n at the current tick.
//
// The formulas deliberately separate two metric families:
//
//   - demand-side metrics derive from what the tasks *ask for* (run queue,
//     disk utilisation/queue, process counts, resident memory);
//   - throughput-side metrics derive from what the node *actually does*
//     (CPU busy fractions, achieved IO and network rates, interrupts,
//     context switches, page-cache churn).
//
// Under normal operation both families follow the same latent task
// activity, so nearly every pair is a likely invariant. A fault that
// throttles progress (hogs, stalls) separates throughput from demand and
// pins the saturated subsystem's metrics, breaking cross-family and
// pinned-metric pairs while leaving within-family pairs intact; a freeze
// (Suspend) flattens everything and breaks both. Those intact/broken
// patterns are the signatures InvarNet-X matches.
func (c *Collectl) Collect(n *cluster.Node) []float64 {
	st := n.State
	caps := n.Caps
	out := make([]float64, Count)

	cpuFrac := st.Used.CPU / caps.CPUCores // throughput side
	diskUtil := st.Offered.DiskMBps / caps.DiskMBps
	if diskUtil > 1 {
		diskUtil = 1
	}
	diskThru := st.Used.DiskMBps / caps.DiskMBps
	rxPkts := st.NetRxMBps * 800
	txPkts := st.NetTxMBps * 800

	prof := profileFor(n.ID)

	user := 78 * cpuFrac
	sys := 14*cpuFrac + 1.5 + prof.sysDisk*4*diskThru
	iowait := prof.iowThru*30*diskThru + 25*st.DiskSat
	if iowait > 45 {
		iowait = 45
	}
	idle := 100 - user - sys - iowait
	if idle < 0 {
		idle = 0
	}

	memUsed := st.Used.MemoryMB + prof.memHeap*100*st.Used.CPU // resident + heap churn
	if memUsed > caps.MemoryMB {
		memUsed = caps.MemoryMB
	}
	cached := 350 + prof.cacheDisk*30*st.Used.DiskMBps
	if maxCached := caps.MemoryMB * 0.45; cached > maxCached {
		cached = maxCached
	}
	memFree := caps.MemoryMB - memUsed - cached
	if memFree < 0 {
		memFree = 0
	}

	out[0] = user
	out[1] = sys
	out[2] = idle
	out[3] = iowait
	out[4] = 600 + prof.ctxCPU*2600*cpuFrac + prof.ctxPkt*0.5*(rxPkts+txPkts)
	out[5] = 350 + prof.intPkt*0.8*(rxPkts+txPkts) + prof.intIO*6*st.Used.DiskIOPS
	out[6] = st.Offered.CPU
	out[7] = memUsed
	out[8] = memFree
	out[9] = cached
	out[10] = 150 + prof.pfTask*40*float64(st.RunningTasks) + prof.pfCPU*100*st.Used.CPU + 9000*st.MemSat
	out[11] = 2500 * st.MemSat
	out[12] = st.DiskReadMBps
	out[13] = st.DiskWriteMBps
	out[14] = st.Used.DiskIOPS
	out[15] = 100 * diskUtil
	out[16] = 0.5 + 6*diskUtil*diskUtil + 30*st.DiskSat
	out[17] = st.NetRxMBps
	out[18] = st.NetTxMBps
	out[19] = rxPkts
	out[20] = txPkts
	out[21] = st.Retransmits
	out[22] = st.RTTms
	out[23] = float64(st.Processes)
	out[24] = float64(st.Threads) + (prof.thrCPU-1)*14*st.Used.CPU
	out[25] = float64(st.OpenFDs) + (prof.fdNet-1)*2.5*(st.NetRxMBps+st.NetTxMBps) + (prof.fdDisk-1)*1.5*st.Used.DiskMBps

	for i := range out {
		out[i] = out[i]*c.rng.Normal(1, c.NoiseSD) + c.rng.Normal(0, c.FloorScale*noiseFloor[i])
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}

// StageMark is one timestamped stage boundary on a trace: the execution
// stage that begins at sample index Start (map/shuffle/reduce for batch
// workloads, query phases for TPC-DS). Marks are ordered by Start and the
// stage runs until the next mark (or the end of the trace).
type StageMark struct {
	Stage string
	Start int
}

// StageWindow is one stage occurrence resolved against a trace's length:
// samples [Lo, Hi) belong to Stage.
type StageWindow struct {
	Stage  string
	Lo, Hi int
}

// Trace accumulates per-tick metric vectors for one node over one run:
// Trace[m][t] is metric m at tick t. Most traces carry the platform's
// Count metrics, but a trace may be built at any width (NewTraceWidth) by a
// caller stacking rows of its own.
//
// A trace from a degraded telemetry path additionally carries validity
// masks: Valid[m][t] is false when metric m at tick t is not a real
// observation (lost or corrupt on the way in), and CPIValid[t] likewise for
// the CPI series. Nil masks mean every sample is a genuine observation — the
// clean fast path allocates nothing.
type Trace struct {
	NodeIP  string
	Rows    [][]float64 // Width() rows (Count unless built otherwise)
	CPI     []float64   // the parallel CPI series
	Ticks   int
	Context string // workload type of the run

	Valid    [][]bool // nil, or Width() rows parallel to Rows
	CPIValid []bool   // nil, or parallel to CPI

	// Stages are the timestamped stage boundaries the simulator (or an
	// ingest stream) annotated on the run, ordered by Start. Empty when the
	// workload has no stage structure or the producer predates it.
	Stages []StageMark
}

// NewTrace returns an empty trace for a node at the platform metric width.
func NewTrace(nodeIP, workloadType string) *Trace {
	return NewTraceWidth(nodeIP, workloadType, Count)
}

// NewTraceWidth returns an empty trace with width metric rows. Width 0 is
// rejected by Add, so callers must pick the platform Count or an explicit
// joint width.
func NewTraceWidth(nodeIP, workloadType string, width int) *Trace {
	return &Trace{
		NodeIP:  nodeIP,
		Rows:    make([][]float64, width),
		Context: workloadType,
	}
}

// Add appends one sampled vector (and its CPI reading) to the trace.
func (t *Trace) Add(sample []float64, cpiValue float64) error {
	if len(sample) != len(t.Rows) {
		return fmt.Errorf("metrics: sample has %d entries, want %d", len(sample), len(t.Rows))
	}
	for m, v := range sample {
		t.Rows[m] = append(t.Rows[m], v)
	}
	t.CPI = append(t.CPI, cpiValue)
	t.Ticks++
	if t.Valid != nil {
		for m := range t.Valid {
			t.Valid[m] = append(t.Valid[m], true)
		}
		t.CPIValid = append(t.CPIValid, true)
	}
	return nil
}

// MarkStage records that the samples from the current length onward belong
// to stage. Re-marking the current stage and empty stage names are no-ops,
// so a producer can call it every tick with whatever the simulator reports.
func (t *Trace) MarkStage(stage string) {
	if stage == "" {
		return
	}
	if n := len(t.Stages); n > 0 && t.Stages[n-1].Stage == stage {
		return
	}
	t.Stages = append(t.Stages, StageMark{Stage: stage, Start: t.Ticks})
}

// StageAt returns the stage covering sample index i, or "" when i precedes
// the first mark (or no marks exist).
func (t *Trace) StageAt(i int) string {
	stage := ""
	for _, m := range t.Stages {
		if m.Start > i {
			break
		}
		stage = m.Stage
	}
	return stage
}

// StageWindows resolves the stage marks into half-open sample windows. The
// windows partition [first mark, Ticks); samples before the first mark are
// not covered (no stage was declared for them). Marks at or beyond the
// trace length resolve to empty windows and are dropped.
func (t *Trace) StageWindows() []StageWindow {
	var out []StageWindow
	for i, m := range t.Stages {
		lo := m.Start
		hi := t.Ticks
		if i+1 < len(t.Stages) {
			hi = t.Stages[i+1].Start
		}
		if hi > t.Ticks {
			hi = t.Ticks
		}
		if lo >= hi {
			continue
		}
		out = append(out, StageWindow{Stage: m.Stage, Lo: lo, Hi: hi})
	}
	return out
}

// MetricValid returns the validity mask of metric m, or nil when the whole
// trace is genuine.
func (t *Trace) MetricValid(m int) []bool {
	if t.Valid == nil {
		return nil
	}
	return t.Valid[m]
}

// ValidFraction returns the fraction of metric samples (across all rows)
// that are genuine observations; 1 for an unmasked trace.
func (t *Trace) ValidFraction() float64 {
	if t.Valid == nil {
		return 1
	}
	total, ok := 0, 0
	for m := range t.Valid {
		for _, v := range t.Valid[m] {
			total++
			if v {
				ok++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// Len returns the number of ticks recorded.
func (t *Trace) Len() int { return t.Ticks }

// Slice returns the sub-trace covering ticks [lo, hi). Stage marks are
// clipped into the window: the stage active at lo (if any) is re-marked at
// index 0, and later boundaries shift by -lo, so StageAt answers the same
// stage for a sample whether asked of the run or of the window.
func (t *Trace) Slice(lo, hi int) (*Trace, error) {
	if lo < 0 || hi > t.Ticks || lo > hi {
		return nil, fmt.Errorf("metrics: slice [%d,%d) out of range for %d ticks", lo, hi, t.Ticks)
	}
	out := NewTraceWidth(t.NodeIP, t.Context, len(t.Rows))
	for m := range t.Rows {
		out.Rows[m] = append([]float64(nil), t.Rows[m][lo:hi]...)
	}
	out.CPI = append([]float64(nil), t.CPI[lo:hi]...)
	out.Ticks = hi - lo
	if t.Valid != nil {
		out.Valid = make([][]bool, len(t.Rows))
		for m := range t.Valid {
			out.Valid[m] = append([]bool(nil), t.Valid[m][lo:hi]...)
		}
		out.CPIValid = append([]bool(nil), t.CPIValid[lo:hi]...)
	}
	for _, m := range t.Stages {
		if m.Start >= hi {
			break
		}
		start := m.Start - lo
		if start < 0 {
			start = 0 // stage already active at lo: re-mark at the window head
		}
		if n := len(out.Stages); n > 0 {
			if out.Stages[n-1].Start == start {
				out.Stages[n-1].Stage = m.Stage // later mark at same index wins
				continue
			}
			if out.Stages[n-1].Stage == m.Stage {
				continue
			}
		}
		out.Stages = append(out.Stages, StageMark{Stage: m.Stage, Start: start})
	}
	return out, nil
}
