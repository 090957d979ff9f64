package cluster

import (
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// Collectl is the simulated collectl agent of the paper's prototype: it
// samples each node's metrics.Count-metric vector, every metric a
// deterministic function of the node's state plus small multiplicative
// measurement noise. Because most metrics are driven by the same latent task
// activity, metric pairs carry strong associations under normal operation —
// the observable likely invariants — and faults that decouple a subsystem
// break exactly the pairs involving that subsystem's metrics. One Collectl
// serves a whole cluster; its noise stream is deterministic.
type Collectl struct {
	rng *stats.RNG
}

// noiseSD is the relative measurement noise of every reading.
const noiseSD = 0.008

// noiseFloor is the absolute measurement noise per metric: counter
// quantisation, sampling-interval misalignment and background daemons put a
// floor under every reading regardless of magnitude. The floor is what
// makes a throttled subsystem genuinely quiet: without it, even a node
// running at 2 % CPU would still transmit the task-demand signal through
// the collector at full fidelity, and association measures would see
// couplings that a real monitoring stack cannot resolve.
var noiseFloor = [metrics.Count]float64{
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
	return &Collectl{rng: rng}
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
func (c *Collectl) Collect(n *Node) []float64 {
	st := n.State
	caps := n.Caps
	out := make([]float64, metrics.Count)

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
		out[i] = out[i]*c.rng.Normal(1, noiseSD) + c.rng.Normal(0, noiseFloor[i])
		if out[i] < 0 {
			out[i] = 0
		}
	}
	return out
}
