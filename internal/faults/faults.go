// Package faults implements the fault-injection framework of the paper's
// evaluation (§4.1): nine operational-environment faults and six
// software-bug faults, the roles played in the original testbed by
// AnarchyApe and the Hadoop fault-injection framework.
//
// Every fault is a cluster.Perturbation active during a tick window
// (the paper injects each fault for 5 minutes = 30 ticks). Each injector
// perturbs the node the way its real counterpart perturbs a Hadoop box, so
// each fault breaks a characteristic set of metric associations — its
// signature — while also moving CPI enough for the ARIMA drift detector to
// fire. Two deliberate properties from the paper's findings are preserved:
//
//   - Net-drop and Net-delay have strongly overlapping footprints, which
//     produces the "signature conflict" the paper reports between them;
//   - Lock-R draws a fresh random stall pattern every activation, so its
//     violations differ run to run and its recall is poor.
package faults

import (
	"fmt"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

// Kind names an injectable fault. The string values appear in signature
// databases and experiment reports.
type Kind string

// Operational-environment faults (paper §4.1, first list).
const (
	// CPUHog co-locates a CPU-bound process with the TaskTracker.
	CPUHog Kind = "cpu-hog"
	// MemHog consumes a large amount of memory on one data node.
	MemHog Kind = "mem-hog"
	// DiskHog generates a mass of disk reads and writes.
	DiskHog Kind = "disk-hog"
	// NetDrop mimics packet loss (AnarchyApe).
	NetDrop Kind = "net-drop"
	// NetDelay delays all packets by 800 ms (AnarchyApe).
	NetDelay Kind = "net-delay"
	// BlockCorruption corrupts data blocks on one data node (AnarchyApe).
	BlockCorruption Kind = "block-c"
	// Misconf sets mapred.max.split.size to a tiny value, exploding the
	// task count.
	Misconf Kind = "misconf"
	// Overload adds concurrent interactive workloads.
	Overload Kind = "overload"
	// Suspend freezes the DataNode/TaskTracker process (AnarchyApe).
	Suspend Kind = "suspend"
)

// Software-bug faults (paper §4.1, second list).
const (
	// RPCHang reproduces HADOOP-6498: RPC calls hang.
	RPCHang Kind = "rpc-hang"
	// ThreadLeak reproduces HADOOP-9703: ipc.Client.stop leaks threads.
	ThreadLeak Kind = "h-9703"
	// NPE reproduces HADOOP-1036: NullPointerException kills tasks.
	NPE Kind = "h-1036"
	// LockRace removes a synchronized qualifier, racing a shared lock.
	LockRace Kind = "lock-r"
	// CommInterference reproduces HADOOP-1970: communication-thread
	// interference.
	CommInterference Kind = "h-1970"
	// BlockReceiver injects exceptions into BlockReceiver.receivePacket.
	BlockReceiver Kind = "block-r"
)

// Cross-node faults: their signatures live in couplings *between* nodes,
// so single-node invariants either miss them or blame the wrong node. They
// are injected with NewCross (culprit + victim perturbation pair) and are
// deliberately not part of Kinds(): the 14-fault single-node corpus and its
// results stay exactly as they were.
const (
	// XLink is a shuffle slow link: the culprit node serves shuffle data
	// at a pinned trickle, starving the reducers on the victim node. The
	// victim's own metrics look like a network fault — on the wrong node.
	XLink Kind = "xlink"
	// XSkew is a partition-skew straggler: one node's reduce partitions
	// are oversized, so its reduces run long after every peer drained.
	// The slowdown is a constant factor — invisible to a scale-invariant
	// association — and the signal is the straggler staying busy while
	// peers idle, a purely cross-node pattern.
	XSkew Kind = "xskew"
	// XRepl is replication-pipeline disk drag: the culprit replica target
	// ingests the victim writer's pipeline at a pinned trickle, and the
	// back-pressure looks like a disk fault on the writer — again the
	// wrong node.
	XRepl Kind = "xrepl"
)

// CrossKinds returns the cross-node fault kinds.
func CrossKinds() []Kind { return []Kind{XLink, XSkew, XRepl} }

// isCross reports whether k is a cross-node fault.
func isCross(k Kind) bool {
	for _, kk := range CrossKinds() {
		if kk == k {
			return true
		}
	}
	return false
}

// EnvironmentKinds returns the nine operational faults.
func EnvironmentKinds() []Kind {
	return []Kind{CPUHog, MemHog, DiskHog, NetDrop, NetDelay, BlockCorruption, Misconf, Overload, Suspend}
}

// BugKinds returns the six software-bug faults.
func BugKinds() []Kind {
	return []Kind{RPCHang, ThreadLeak, NPE, LockRace, CommInterference, BlockReceiver}
}

// Kinds returns every fault kind, environment faults first.
func Kinds() []Kind { return append(EnvironmentKinds(), BugKinds()...) }

// Valid reports whether k names a known fault.
func Valid(k Kind) bool {
	for _, kk := range Kinds() {
		if kk == k {
			return true
		}
	}
	return false
}

// InteractiveOnly reports whether the fault is only meaningful under
// interactive workloads. Overload cannot occur under FIFO batch jobs
// ("When Hadoop works in FIFO mode, one job takes up the whole cluster
// exclusively. Therefore overload doesn't happen", §4.3).
func InteractiveOnly(k Kind) bool { return k == Overload }

// Description returns a one-line human description.
func Description(k Kind) string {
	switch k {
	case CPUHog:
		return "CPU-bound process competes with TaskTracker for CPU"
	case MemHog:
		return "memory-bound process consumes a large amount of memory"
	case DiskHog:
		return "disk-bound process floods the data node with reads/writes"
	case NetDrop:
		return "packet loss injected on the node"
	case NetDelay:
		return "all packets delayed ~800 ms"
	case BlockCorruption:
		return "HDFS data blocks corrupted on the node"
	case Misconf:
		return "mapred.max.split.size set to 1M: task explosion"
	case Overload:
		return "extra concurrent interactive workloads"
	case Suspend:
		return "DataNode/TaskTracker process suspended"
	case RPCHang:
		return "HADOOP-6498: RPC call hang"
	case ThreadLeak:
		return "HADOOP-9703: thread leak in ipc.Client.stop"
	case NPE:
		return "HADOOP-1036: NullPointerException aborts tasks"
	case LockRace:
		return "missing synchronized: racy lock, erratic stalls"
	case CommInterference:
		return "HADOOP-1970: communication thread interference"
	case BlockReceiver:
		return "BlockReceiver.receivePacket throws: write pipeline retries"
	case XLink:
		return "shuffle slow link: culprit serves shuffle at a trickle, peer reducers starve"
	case XSkew:
		return "partition skew: oversized reduce partitions straggle while peers drain"
	case XRepl:
		return "replication drag: culprit replica ingests the write pipeline at a trickle"
	default:
		return "unknown fault"
	}
}

// Window is a half-open activation interval in ticks.
type Window struct {
	Start int // first active tick
	End   int // first inactive tick
}

// Active reports whether the window covers tick.
func (w Window) Active(tick int) bool { return tick >= w.Start && tick < w.End }

// Injector is a schedulable fault: a cluster.Perturbation plus bookkeeping.
type Injector struct {
	kind   Kind
	window Window
	rng    *stats.RNG

	// lockPlan and lockMode are Lock-R's per-activation random stall plan.
	lockPlan []lockEpoch
	lockMode int
}

// lockEpoch is one segment of Lock-R's erratic behaviour.
type lockEpoch struct {
	lenTicks int
	speed    float64 // stall severity during the epoch (1 = none)
}

// New constructs an injector for kind, active during w, with randomness
// forked from rng. It returns an error for unknown kinds.
func New(kind Kind, w Window, rng *stats.RNG) (*Injector, error) {
	if !Valid(kind) {
		return nil, fmt.Errorf("faults: unknown kind %q", kind)
	}
	inj := &Injector{kind: kind, window: w, rng: rng.Fork(int64(len(kind)) + int64(w.Start)*31)}
	if kind == LockRace {
		inj.planLockRace()
	}
	return inj, nil
}

// Name implements cluster.Perturbation.
func (in *Injector) Name() string { return string(in.kind) }

// Apply implements cluster.Perturbation.
func (in *Injector) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	if !in.window.Active(tick) {
		return
	}
	rel := tick - in.window.Start
	switch in.kind {
	case CPUHog:
		// A tight spin loop pinned across cores: demand well beyond
		// capacity so the TaskTracker's children lose cycles.
		eff.Extra.CPU += 10 + in.rng.Uniform(0, 2)
		eff.ExtraProcesses += 8
		eff.ExtraThreads += 16

	case MemHog:
		// Allocation ramps up over the first few ticks, then holds above
		// physical memory so the node thrashes.
		ramp := float64(rel+1) / 4
		if ramp > 1 {
			ramp = 1
		}
		// The hog's resident set breathes as the kernel reclaims pages
		// and the hog touches them back in; the resulting memory-pressure
		// swings (page faults, thrash intensity) are what decouple the
		// memory metrics — a constant pressure level would leave their
		// rank structure, and hence MIC, untouched.
		eff.Extra.MemoryMB += ramp * n.Caps.MemoryMB * in.rng.Uniform(0.95, 1.35)
		eff.Extra.CPU += 0.5 + in.rng.Uniform(0, 0.8) // page-scan overhead
		eff.ExtraProcesses++
		eff.ExtraThreads += 4

	case DiskHog:
		eff.Extra.DiskMBps += 260 + in.rng.Uniform(0, 40)
		eff.Extra.DiskIOPS += 700
		eff.Extra.CPU += 0.6
		eff.ExtraProcesses += 2
		eff.ExtraThreads += 6

	case NetDrop:
		// Packet loss: retransmissions, lost goodput, mildly raised RTT
		// (retransmission delays), and a slowed RPC layer. Loss arrives in
		// bursts, so throughput is erratic tick to tick — the trait that
		// (partially) separates Net-drop from Net-delay's smooth
		// bandwidth-delay throttling.
		eff.DropRate += 0.04 + in.rng.Uniform(0, 0.1)
		// Loss barely moves the round-trip time of the packets that do get
		// through — RTT is what separates Net-drop from Net-delay.
		eff.AddRTTms += 4 + in.rng.Uniform(0, 8)
		eff.ScaleNetSpeed(in.rng.Uniform(0.35, 0.85))
		eff.ScaleTaskSpeed(0.75)
		eff.HeartbeatDelaySec += 4

	case NetDelay:
		// An 800 ms delay on every packet: throughput collapses
		// (bandwidth-delay product) and timeouts cause spurious
		// retransmissions — which is why Net-delay and Net-drop confuse
		// each other in the signature database.
		// The measured RTT jitters around the injected delay (queueing on
		// top of the fixed 800 ms), swamping the small traffic-driven RTT
		// component and decoupling RTT from the traffic metrics.
		eff.AddRTTms += 740 + in.rng.Uniform(0, 120)
		eff.ScaleNetCap(0.35)
		// With an 800 ms RTT the TCP windows never fill the pipe; goodput
		// is bursty and timeout-retransmissions come and go.
		eff.ScaleNetSpeed(in.rng.Uniform(0.2, 0.6))
		eff.AddRetrans += 100 + in.rng.Uniform(0, 120)
		eff.ScaleTaskSpeed(0.7)
		eff.HeartbeatDelaySec += 6

	case BlockCorruption:
		eff.BlockCorruptProb = 0.6
		// Checksum re-verification and replica re-reads slow local IO.
		eff.ScaleDiskSpeed(0.7)
		eff.Extra.CPU += 0.8

	case Misconf:
		// The split-size misconfiguration mostly acts through the job
		// spec (TransformSpec); at the node it shows up as scheduling
		// churn — short-lived JVMs starting and dying at their own rhythm,
		// which decouples the CPU and process-table metrics from the
		// steady task activity.
		eff.Extra.CPU += in.rng.Uniform(0.2, 1.6)
		eff.ExtraProcesses += in.rng.Intn(16)
		eff.ExtraThreads += in.rng.Intn(300)
		eff.ExtraFDs += in.rng.Intn(400)
		eff.ScaleTaskSpeed(0.68)

	case Overload:
		// Extra concurrent queries: demand rises across every resource at
		// once, saturating the node and violating associations wholesale
		// — which is why the paper finds Overload trivially separable.
		eff.Extra.CPU += 7 + in.rng.Uniform(0, 2)
		eff.Extra.MemoryMB += 0.35 * n.Caps.MemoryMB
		eff.Extra.DiskMBps += 120 + in.rng.Uniform(0, 30)
		eff.Extra.DiskIOPS += 300
		eff.Extra.NetMBps += 70 + in.rng.Uniform(0, 20)
		eff.ExtraProcesses += 24
		eff.ExtraThreads += 300
		eff.ExtraFDs += 800

	case Suspend:
		eff.Suspend = true

	case RPCHang:
		// A hung RPC layer starves scheduling and blocks tasks in long
		// episodes with short bursts of progress when a call finally
		// completes. The burst pattern is what decouples throughput
		// metrics (oscillating wildly) from demand-side metrics (pinned:
		// nothing finishes, so the task population stays put).
		eff.HeartbeatDelaySec += 30
		// Hang episodes are aperiodic: whether a given RPC completes is a
		// coin flip, not a schedule. (A periodic pattern would share its
		// period with the heartbeat-gated scheduler, and MIC would see the
		// common rhythm as continued association.)
		if in.rng.Bernoulli(0.2) {
			eff.ScaleTaskSpeed(1.0)
		} else {
			eff.ScaleTaskSpeed(0.02)
		}
		eff.AddRTTms += 15

	case ThreadLeak:
		// Threads leak steadily; each carries stack + bookkeeping memory,
		// and scheduler overhead degrades task progress as the table
		// grows — the gradual-onset signature of a leak.
		leaked := 100 * (rel + 1)
		eff.ExtraThreads += leaked
		eff.Extra.MemoryMB += float64(leaked) * 5
		eff.Extra.CPU += float64(leaked) * 0.002
		eff.ScaleTaskSpeed(1 / (1 + float64(leaked)/1200))

	case NPE:
		// Tasks die on the NullPointerException and restart from scratch:
		// the visible signature is churn — process-table turnover, work
		// thrown away and re-read, JVM start overhead — rather than a
		// uniform slowdown.
		eff.TaskFailureProb = 0.35
		eff.Extra.CPU += in.rng.Uniform(0.2, 1.2) // JVM restart churn
		eff.Extra.DiskMBps += in.rng.Uniform(4, 16)
		eff.ExtraProcesses += in.rng.Intn(8)
		eff.ScaleTaskSpeed(0.68)

	case LockRace:
		in.applyLockRace(rel, eff)

	case CommInterference:
		// Intermittent communication stalls: a few ticks on, a few off.
		if in.rng.Bernoulli(0.5) {
			eff.ScaleNetSpeed(0.25)
			eff.AddRTTms += 200 + in.rng.Uniform(0, 80)
			eff.AddRetrans += 40
			eff.ScaleTaskSpeed(0.7)
			eff.HeartbeatDelaySec += 8
			// The interfering communication thread spins, burning CPU —
			// the channel that separates H-1970 from plain network faults.
			eff.Extra.CPU += 3.5
			eff.ExtraThreads += 200
		}

	case BlockReceiver:
		// Failed receivePacket calls abort and retry the write pipeline.
		eff.WriteFailProb = 0.35
		eff.ScaleDiskSpeed(0.55)
		eff.AddRetrans += 25
		eff.Extra.CPU += 0.5
		eff.ScaleTaskSpeed(0.8)
	}
}

// planLockRace draws the per-activation random stall plan. Which code path
// hits the missing synchronization depends on thread interleaving, so every
// activation manifests in a different subsystem — the source of Lock-R's
// poor recall in the paper ("Lock-R makes different violations in different
// runs"): one stall mode dominates the whole activation, but the mode
// changes run to run.
func (in *Injector) planLockRace() {
	in.lockMode = in.rng.Intn(4)
	var plan []lockEpoch
	total := 0
	for total < 4096 { // longer than any realistic window
		e := lockEpoch{
			lenTicks: 1 + in.rng.Intn(4),
			speed:    in.rng.Uniform(0.15, 0.8),
		}
		plan = append(plan, e)
		total += e.lenTicks
	}
	in.lockPlan = plan
}

// applyLockRace replays the activation's stall plan under its mode.
func (in *Injector) applyLockRace(rel int, eff *cluster.Effects) {
	idx := 0
	for _, e := range in.lockPlan {
		if rel < e.lenTicks {
			break
		}
		rel -= e.lenTicks
		idx++
		if idx >= len(in.lockPlan) {
			idx = len(in.lockPlan) - 1
			break
		}
	}
	e := in.lockPlan[idx]
	switch in.lockMode {
	case 0: // contended compute path: spinning waiters burn CPU
		eff.ScaleTaskSpeed(e.speed)
		eff.Extra.CPU += 3 * (1 - e.speed)
		eff.ExtraThreads += 150
	case 1: // contended flush path: disk writes serialise
		eff.ScaleDiskSpeed(e.speed * 0.6)
	case 2: // contended transfer path: socket sends serialise
		eff.ScaleNetSpeed(e.speed * 0.6)
		eff.AddRTTms += 40 * (1 - e.speed)
	default: // global stop-the-world pauses at random instants
		if in.rng.Bernoulli(0.5) {
			eff.ScaleTaskSpeed(e.speed * 0.5)
		}
	}
}

// CrossInjector is a cross-node fault: a culprit-side and a victim-side
// perturbation sharing one activation window. The culprit carries the root
// cause (a pinned serving or ingest rate, an oversized partition); the
// victim carries the observable degradation that trips the CPI monitor —
// on a different node than the cause, which is exactly what single-node
// diagnosis gets wrong. XLink and XRepl require the cluster to run with
// CrossTraffic enabled (the caps act on the inter-node flows); XSkew has no
// victim-side perturbation (culprit and victim are the same node).
type CrossInjector struct {
	kind   Kind
	window Window
	rng    *stats.RNG
}

// NewCross constructs a cross-node injector for kind, active during w.
func NewCross(kind Kind, w Window, rng *stats.RNG) (*CrossInjector, error) {
	if !isCross(kind) {
		return nil, fmt.Errorf("faults: %q is not a cross-node kind", kind)
	}
	return &CrossInjector{kind: kind, window: w, rng: rng.Fork(int64(len(kind)) + int64(w.Start)*37)}, nil
}

// Culprit returns the perturbation to attach to the culprit node.
func (ci *CrossInjector) Culprit() cluster.Perturbation {
	return &crossSide{ci: ci, victim: false}
}

// Victim returns the perturbation to attach to the victim node, or nil when
// the fault has no victim-side component (XSkew).
func (ci *CrossInjector) Victim() cluster.Perturbation {
	if ci.kind == XSkew {
		return nil
	}
	return &crossSide{ci: ci, victim: true}
}

// crossSide is one node's half of a cross fault.
type crossSide struct {
	ci     *CrossInjector
	victim bool
}

// Name implements cluster.Perturbation.
func (cs *crossSide) Name() string {
	if cs.victim {
		return string(cs.ci.kind) + "-victim"
	}
	return string(cs.ci.kind)
}

// Apply implements cluster.Perturbation.
func (cs *crossSide) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	if !cs.ci.window.Active(tick) {
		return
	}
	rel := tick - cs.ci.window.Start
	rng := cs.ci.rng
	switch cs.ci.kind {
	case XLink:
		if !cs.victim {
			// The culprit's shuffle serving is pinned at a trickle and its
			// NIC degraded: flat transmit regardless of the reducers'
			// demand, and the node's whole network dimension saturating at
			// a fraction of capacity. Pinning, not scaling — MIC is
			// scale-invariant, so only the flat line breaks the
			// tx@culprit ~ demand@peer couplings, and the clipped NIC
			// flattens every flow through the culprit, not just the serve.
			eff.ShuffleServeCapMBps = 0.4
			eff.ScaleNetCap(0.25)
			return
		}
		// The victim's reducers starve while shuffling: effective only when
		// the node actually runs reduces, so the degradation — and the CPI
		// alert — lands in the shuffle/reduce stage. To the victim's own
		// metrics this reads as a network fault on the victim. Only the net
		// dimension is scaled — rank-preserving, so the starved node does
		// not itself look like a straggler.
		if n.State.RunningReduces > 0 {
			eff.ScaleNetSpeed(rng.Uniform(0.3, 0.5))
			eff.AddRTTms += 60 + rng.Uniform(0, 40)
			eff.AddRetrans += 15 + rng.Uniform(0, 10)
		}

	case XSkew:
		// Oversized partitions: the node's reduces progress at a constant
		// fraction of normal speed. No metric decouples locally — the same
		// demand shape, longer — so single-node invariants stay silent.
		eff.ScaleReduceSpeed(0.3)
		// The oversized partition spills and re-sorts: compute pressure
		// ramps as the merge deepens, eventually saturating the node enough
		// to move CPI. Peers have long drained by then, which is the
		// cross-node signature: a busy straggler against idle peers.
		if n.State.RunningReduces > 0 {
			ramp := float64(rel) / 8
			if ramp > 1 {
				ramp = 1
			}
			// Sized to the node: the spill must saturate whatever hardware
			// the straggler runs on, or the stall never reaches CPI.
			eff.Extra.CPU += ramp * n.Caps.CPUCores * (1.0 + rng.Uniform(0, 0.25))
			eff.Extra.DiskMBps += ramp * n.Caps.DiskMBps * (0.5 + rng.Uniform(0, 0.15))
		}

	case XRepl:
		if !cs.victim {
			// The culprit replica target accepts the pipeline at a pinned
			// trickle (dragging disk): flat ingest regardless of the
			// writer's stream.
			eff.ReplIngestCapMBps = 0.3
			return
		}
		// The writer's pipeline acks stall: local writes appear slow while
		// maps (the write-heavy phase of the simulated jobs) run. Locally
		// indistinguishable from a disk fault on the writer.
		if n.State.RunningMaps > 0 {
			eff.ScaleDiskSpeed(rng.Uniform(0.35, 0.55))
			eff.Extra.DiskIOPS += 60
			eff.ScaleTaskSpeed(0.85)
		}
	}
}

// MisconfSplitFactor is how many tiny tasks each map task explodes into
// under the split-size misconfiguration.
const MisconfSplitFactor = 4

// TransformSpec applies a fault's job-level effect to a spec. Only Misconf
// changes the spec: each map task becomes MisconfSplitFactor tiny tasks,
// each paying fixed JVM-start and scheduling overhead, which is how a 1 MB
// split size degrades a real Hadoop job.
func TransformSpec(kind Kind, spec cluster.JobSpec) cluster.JobSpec {
	if kind != Misconf {
		return spec
	}
	out := spec
	out.MapTasks = nil
	const overheadCPU = 4.0  // core-seconds of JVM start per task
	const overheadSecs = 5.0 // startup latency per task
	for _, t := range spec.MapTasks {
		f := float64(MisconfSplitFactor)
		small := cluster.TaskSpec{
			CPUWork:        t.CPUWork/f + overheadCPU,
			DiskReadMB:     t.DiskReadMB / f,
			DiskWriteMB:    t.DiskWriteMB / f,
			NetInMB:        t.NetInMB / f,
			NetOutMB:       t.NetOutMB / f,
			MemoryMB:       t.MemoryMB * 0.8,
			NominalSeconds: t.NominalSeconds/f + overheadSecs,
		}
		for i := 0; i < MisconfSplitFactor; i++ {
			out.MapTasks = append(out.MapTasks, small)
		}
	}
	return out
}
