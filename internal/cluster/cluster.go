package cluster

import (
	"fmt"

	"invarnetx/internal/stats"
)

// TickSeconds is the simulated length of one tick, equal to the paper's
// 10-second metric collection interval.
const TickSeconds = 10.0

// Cluster is the simulated Hadoop deployment: one master and N slaves.
type Cluster struct {
	Nodes  []*Node // master first, then the slaves
	slaves []*Node
	name   *NameNode
	rng    *stats.RNG
	seed   int64

	tick      int
	nextJobID int

	queue  []*Job // FIFO queue for batch jobs
	active []*Job

	// CrossTraffic models the inter-node flows a real Hadoop deployment
	// has and a per-node simulation can omit: shuffle serving (reducers
	// pull map output from peer DataNodes, charged as transmit + disk
	// read at the serving side) and replication forwarding (a fraction of
	// each node's writes streams to its HDFS pipeline successor). These
	// flows are what cross-node invariants mine; the flag is off by
	// default so single-node studies stay bit-identical.
	CrossTraffic bool
}

// New builds a cluster with nSlaves slave nodes (plus one master), with all
// stochastic behaviour driven by seed.
func New(nSlaves int, seed int64) *Cluster {
	if nSlaves < 1 {
		nSlaves = 1
	}
	c := &Cluster{rng: stats.NewRNG(seed), seed: seed, name: newNameNode()}
	c.Nodes = append(c.Nodes, newNode(0, RoleMaster, defaultCaps()))
	for i := 1; i <= nSlaves; i++ {
		n := newNode(i, RoleSlave, defaultCaps())
		c.Nodes = append(c.Nodes, n)
		c.slaves = append(c.slaves, n)
	}
	return c
}

// heterogeneousCaps is the capacity rotation used by NewHeterogeneous. The
// first slave keeps the default configuration; later slaves differ in
// cores, memory, disk and NIC so that per-node performance models and
// invariants genuinely diverge — the property that makes the paper's
// operation context (workload type AND node) necessary.
var heterogeneousCaps = []Caps{
	defaultCaps(),
	{CPUCores: 6, MemoryMB: 12 * 1024, DiskMBps: 100, DiskIOPS: 280, NetMBps: 120},
	{CPUCores: 12, MemoryMB: 24 * 1024, DiskMBps: 220, DiskIOPS: 600, NetMBps: 120},
	{CPUCores: 8, MemoryMB: 16 * 1024, DiskMBps: 130, DiskIOPS: 350, NetMBps: 60},
	{CPUCores: 4, MemoryMB: 8 * 1024, DiskMBps: 90, DiskIOPS: 240, NetMBps: 120},
}

// heterogeneousCPIFactors gives each slave hardware generation its own
// cycle cost for the same code. Slave 0 stays canonical.
var heterogeneousCPIFactors = []float64{1, 0.9, 1.12, 1.05, 0.94}

// NewHeterogeneous builds a cluster whose slaves cycle through a table of
// distinct hardware configurations (capacities and CPU generations).
func NewHeterogeneous(nSlaves int, seed int64) *Cluster {
	c := New(nSlaves, seed)
	for i, n := range c.slaves {
		n.Caps = heterogeneousCaps[i%len(heterogeneousCaps)]
		n.CPIFactor = heterogeneousCPIFactors[i%len(heterogeneousCPIFactors)]
	}
	return c
}

// Slaves returns the slave nodes.
func (c *Cluster) Slaves() []*Node { return c.slaves }

// Tick returns the current tick number.
func (c *Cluster) Tick() int { return c.tick }

// Submit enqueues a job and returns its handle. Batch jobs enter the FIFO
// queue; interactive jobs activate immediately and share the cluster.
func (c *Cluster) Submit(spec JobSpec) *Job {
	j := newJob(c.nextJobID, spec, c.tick)
	c.nextJobID++
	j.blocks = c.name.allocate(spec.InputMB, c.slaves)
	if spec.Interactive {
		j.State = JobMapping
		j.StartTick = c.tick
		c.active = append(c.active, j)
	} else {
		c.queue = append(c.queue, j)
	}
	return j
}

// Step advances the simulation by one tick.
func (c *Cluster) Step() {
	c.tick++
	// 1. Evaluate perturbations into per-node effects.
	effects := make(map[int]*Effects, len(c.Nodes))
	for _, n := range c.Nodes {
		eff := &Effects{}
		for _, p := range n.perturbations {
			p.Apply(c.tick, n, eff)
		}
		eff.normalize()
		n.suspended = eff.Suspend
		effects[n.ID] = eff
	}
	// 2. FIFO promotion: start the next batch job when no batch job runs.
	if !c.batchActive() && len(c.queue) > 0 {
		j := c.queue[0]
		c.queue = c.queue[1:]
		j.State = JobMapping
		j.StartTick = c.tick
		c.active = append(c.active, j)
	}
	// 3. Fault-driven task failures and block corruption.
	c.applyTaskFailures(effects)
	c.applyBlockCorruption(effects)
	// 4. Schedule pending tasks onto free slots (heartbeat permitting).
	c.schedule(effects)
	// 5. Resource accounting and task progress per node.
	repairs := c.planRepairs()
	cross := c.planCross(effects)
	for _, n := range c.Nodes {
		c.stepNode(n, effects[n.ID], repairs, cross)
	}
	// 6. Job completion.
	c.reapJobs()
}

// batchActive reports whether a non-interactive job is currently active.
func (c *Cluster) batchActive() bool {
	for _, j := range c.active {
		if !j.Spec.Interactive {
			return true
		}
	}
	return false
}

// applyTaskFailures restarts running tasks according to TaskFailureProb.
func (c *Cluster) applyTaskFailures(effects map[int]*Effects) {
	for _, n := range c.slaves {
		eff := effects[n.ID]
		if eff.TaskFailureProb <= 0 {
			continue
		}
		fail := func(list []*Task) []*Task {
			keep := list[:0]
			for _, t := range list {
				if t.cancelled {
					keep = append(keep, t) // advance will drop it
					continue
				}
				if c.rng.Bernoulli(eff.TaskFailureProb) {
					t.Restarts++
					t.reset()
					t.Node = nil
					if t.Kind == KindMap {
						t.Job.pendingMaps = append(t.Job.pendingMaps, t)
					} else {
						t.Job.pendingReduces = append(t.Job.pendingReduces, t)
					}
					t.Job.running--
				} else {
					keep = append(keep, t)
				}
			}
			return keep
		}
		n.maps = fail(n.maps)
		n.reduces = fail(n.reduces)
	}
}

// applyBlockCorruption corrupts replicas per BlockCorruptProb.
func (c *Cluster) applyBlockCorruption(effects map[int]*Effects) {
	for _, n := range c.slaves {
		eff := effects[n.ID]
		if eff.BlockCorruptProb > 0 && c.rng.Bernoulli(eff.BlockCorruptProb) {
			c.name.corruptOn(n.ID, c.rng.Intn)
		}
	}
}

// schedule assigns pending tasks to free slots. A node participates only if
// it is not suspended and its heartbeat got through this tick; RPC-hang
// lowers that probability, starving slots exactly the way a hung JobTracker
// RPC does.
func (c *Cluster) schedule(effects map[int]*Effects) {
	for _, j := range c.active {
		if j.State == JobMapping && len(j.pendingMaps) == 0 && j.runningMaps() == 0 {
			j.State = JobReducing
			j.reduceStartTick = c.tick
			j.shuffleTicks = shuffleJitter(c.seed, j.ID)
		}
	}
	for _, n := range c.slaves {
		eff := effects[n.ID]
		if n.suspended {
			continue
		}
		if eff.HeartbeatDelaySec > 0 {
			// Heartbeats arrive every (10s + delay): the node only gets
			// new work on the ticks where one lands.
			period := 1 + int(eff.HeartbeatDelaySec/TickSeconds)
			if c.tick%period != 0 {
				continue
			}
		}
		for n.FreeMapSlots() > 0 {
			t := c.nextPending(KindMap, n)
			if t == nil {
				break
			}
			t.Node = n
			t.startTick = c.tick
			n.maps = append(n.maps, t)
			t.Job.running++
		}
		for n.FreeReduceSlots() > 0 {
			t := c.nextPending(KindReduce, n)
			if t == nil {
				break
			}
			t.Node = n
			t.startTick = c.tick
			n.reduces = append(n.reduces, t)
			t.Job.running++
		}
	}
	c.speculate()
}

// nextPending pops the next schedulable task of the given kind for node n,
// preferring (for maps) jobs with local healthy block replicas.
func (c *Cluster) nextPending(kind TaskKind, n *Node) *Task {
	for _, j := range c.active {
		switch kind {
		case KindMap:
			j.pendingMaps = dropCancelled(j.pendingMaps)
			if j.State != JobMapping || len(j.pendingMaps) == 0 {
				continue
			}
			// Locality preference: scan for a task whose job has a healthy
			// block on this node; fall back to the head.
			idx := 0
			if len(j.blocks) > 0 && !c.hasLocalBlock(j, n) {
				// Remote read: the task will pull its input over the
				// network; model by inflating NetIn.
				t := j.pendingMaps[idx]
				j.pendingMaps = append(j.pendingMaps[:idx], j.pendingMaps[idx+1:]...)
				t.netLeft += t.Spec.DiskReadMB * 0.5
				return t
			}
			t := j.pendingMaps[idx]
			j.pendingMaps = append(j.pendingMaps[:idx], j.pendingMaps[idx+1:]...)
			return t
		case KindReduce:
			j.pendingReduces = dropCancelled(j.pendingReduces)
			if j.State != JobReducing || len(j.pendingReduces) == 0 {
				continue
			}
			t := j.pendingReduces[0]
			j.pendingReduces = j.pendingReduces[1:]
			return t
		}
	}
	return nil
}

// dropCancelled removes cancelled tasks from a pending list (their work was
// completed by the winning speculative copy).
func dropCancelled(list []*Task) []*Task {
	keep := list[:0]
	for _, t := range list {
		if !t.cancelled {
			keep = append(keep, t)
		}
	}
	return keep
}

// hasLocalBlock reports whether any of the job's input blocks has a healthy
// replica on node n.
func (c *Cluster) hasLocalBlock(j *Job, n *Node) bool {
	for _, id := range j.blocks {
		if b, ok := c.name.blocks[id]; ok && b.healthyReplicaOn(n.ID) {
			return true
		}
	}
	return false
}

// speculate launches backup copies of straggling tasks — Hadoop's
// speculative execution, on by default in Hadoop 1.x and always on here;
// the first copy to finish wins. A running task is a straggler when at
// least three tasks of its kind have completed and it has been running for
// more than twice their median duration, it has no copy yet, and some other
// node has a free slot of the right kind.
func (c *Cluster) speculate() {
	for _, n := range c.slaves {
		for _, t := range append(append([]*Task(nil), n.maps...), n.reduces...) {
			if t.twin != nil || t.cancelled || t.Speculative {
				continue
			}
			durs := t.Job.mapDurations
			if t.Kind == KindReduce {
				durs = t.Job.reduceDurations
			}
			if len(durs) < 3 {
				continue
			}
			med := medianInt(durs)
			if c.tick-t.startTick <= 2*med {
				continue
			}
			host := c.backupHost(t)
			if host == nil {
				continue
			}
			copyTask := newTask(t.Job, t.Kind, t.Spec)
			copyTask.Speculative = true
			copyTask.twin = t
			t.twin = copyTask
			copyTask.Node = host
			copyTask.startTick = c.tick
			if t.Kind == KindMap {
				host.maps = append(host.maps, copyTask)
			} else {
				host.reduces = append(host.reduces, copyTask)
			}
			t.Job.running++
		}
	}
}

// backupHost picks a healthy node, different from the straggler's, with a
// free slot of the right kind.
func (c *Cluster) backupHost(t *Task) *Node {
	for _, n := range c.slaves {
		if n == t.Node || n.suspended {
			continue
		}
		if t.Kind == KindMap && n.FreeMapSlots() > 0 {
			return n
		}
		if t.Kind == KindReduce && n.FreeReduceSlots() > 0 {
			return n
		}
	}
	return nil
}

// medianInt returns the median of a non-empty int slice.
func medianInt(xs []int) int {
	cp := append([]int(nil), xs...)
	for i := 1; i < len(cp); i++ {
		for j := i; j > 0 && cp[j] < cp[j-1]; j-- {
			cp[j], cp[j-1] = cp[j-1], cp[j]
		}
	}
	return cp[len(cp)/2]
}

// shuffleJitter derives the shuffle-round length (in ticks) for a job from
// the cluster seed and job ID alone. Using a hash instead of the cluster
// RNG keeps the stage timeline from perturbing any existing random stream:
// enabling stage tracking changes no simulated metric value. The result is
// jittered across jobs and seeds but identical on replay (12–16 ticks, long
// enough for a stage-scoped invariant window).
func shuffleJitter(seed int64, jobID int) int {
	h := uint64(seed)*0x9e3779b97f4a7c15 + uint64(jobID)*0xbf58476d1ce4e5b9 + 0x632be59bd9b4e019
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return 12 + int(h%5)
}

// CurrentStage returns the execution stage the cluster is in at the
// current tick: the active batch job's map/shuffle/reduce stage (batch
// jobs run FIFO-exclusively, so there is at most one), or — for purely
// interactive traffic — the query phase with the most running tasks,
// ties broken lexicographically for determinism. Empty when idle.
func (c *Cluster) CurrentStage() string {
	for _, j := range c.active {
		if !j.Spec.Interactive {
			return j.StageAt(c.tick)
		}
	}
	best, bestVotes := "", 0
	for _, j := range c.active {
		if j.Spec.Phase == "" {
			continue
		}
		votes := j.running + 1 // +1 so a just-submitted query still counts
		switch {
		case votes > bestVotes:
			best, bestVotes = j.Spec.Phase, votes
		case votes == bestVotes && best != "" && j.Spec.Phase < best:
			best = j.Spec.Phase
		}
	}
	return best
}

// repairWork is the per-node extra demand from block re-replication.
type repairWork struct {
	netOut map[int]float64 // srcID -> MB/s
	write  map[int]float64 // dstID -> MB/s
}

// planRepairs performs up to two block repairs per tick and returns the
// resulting demand charges.
func (c *Cluster) planRepairs() repairWork {
	rw := repairWork{netOut: map[int]float64{}, write: map[int]float64{}}
	for i := 0; i < 2; i++ {
		src, dst, mb, ok := c.name.repairOne()
		if !ok {
			break
		}
		rate := mb / TickSeconds
		rw.netOut[src] += rate
		rw.write[dst] += rate
	}
	return rw
}

// crossWork is the per-node demand from inter-node flows (shuffle serving
// and replication forwarding), keyed by node ID. The zero value (nil maps)
// reads as zero everywhere, so disabling CrossTraffic costs nothing.
type crossWork struct {
	tx    map[int]float64 // transmit MB/s charged at the serving/forwarding node
	rx    map[int]float64 // receive MB/s charged at the ingesting node
	read  map[int]float64 // disk-read MB/s at the shuffle-serving node
	write map[int]float64 // disk-write MB/s at the replication target
}

// Cross-traffic shape constants. shuffleServeScale converts a reducer's
// inbound demand into the transmit work its peers perform (the remainder is
// already on disk locally); replForwardFrac is the share of a node's write
// stream forwarded to its HDFS pipeline successor.
const (
	shuffleServeScale = 0.65
	replForwardFrac   = 0.35
)

// planCross computes this tick's inter-node flows on the slave ring. Each
// reducer's pull is served mostly by the ring predecessor of its node (70%,
// the rest split across other peers), charged as transmit plus disk read at
// the server; each node forwards a fraction of its previous-tick write
// stream to its ring successor as replication (transmit at the source,
// receive + write at the target). Per-node Effects caps pin the served and
// ingested rates — the flat signals the cross-node fault injectors rely on.
func (c *Cluster) planCross(effects map[int]*Effects) crossWork {
	var cw crossWork
	if !c.CrossTraffic || len(c.slaves) < 2 {
		return cw
	}
	nSlaves := len(c.slaves)
	cw = crossWork{
		tx:    make(map[int]float64, nSlaves),
		rx:    make(map[int]float64, nSlaves),
		read:  make(map[int]float64, nSlaves),
		write: make(map[int]float64, nSlaves),
	}
	// Shuffle serving, driven by the reducers running right now.
	serve := make(map[int]float64, nSlaves)
	for i, b := range c.slaves {
		for _, t := range b.reduces {
			if t.cancelled {
				continue
			}
			d := t.Spec.NominalSeconds
			if d <= 0 {
				d = 1
			}
			pull := (t.Spec.NetInMB / d) * t.blend * shuffleServeScale
			pred := c.slaves[(i-1+nSlaves)%nSlaves]
			if nSlaves == 2 {
				serve[pred.ID] += pull
				continue
			}
			serve[pred.ID] += 0.7 * pull
			rest := 0.3 * pull / float64(nSlaves-2)
			for j, s := range c.slaves {
				if j == i || s == pred {
					continue
				}
				serve[s.ID] += rest
			}
		}
	}
	for _, s := range c.slaves {
		tx := serve[s.ID]
		if tx == 0 {
			continue
		}
		if lim := effects[s.ID].ShuffleServeCapMBps; lim > 0 && tx > lim {
			tx = lim
		}
		cw.tx[s.ID] += tx
		cw.read[s.ID] += 0.8 * tx
	}
	// Replication forwarding along the ring, from the previous tick's
	// observed write stream (one tick of lag; the AR(1) activity process
	// keeps adjacent ticks correlated, so the coupling survives).
	for i, a := range c.slaves {
		repl := replForwardFrac * a.State.DiskWriteMBps
		if repl <= 0 {
			continue
		}
		succ := c.slaves[(i+1)%nSlaves]
		if lim := effects[succ.ID].ReplIngestCapMBps; lim > 0 && repl > lim {
			repl = lim
		}
		cw.tx[a.ID] += repl
		cw.rx[succ.ID] += repl
		cw.write[succ.ID] += repl
	}
	return cw
}

// stepNode performs resource accounting and task progress for one node.
func (c *Cluster) stepNode(n *Node, eff *Effects, repairs repairWork, cross crossWork) {
	st := NodeState{Tick: c.tick}

	if eff.Suspend {
		// A suspended process consumes nothing and makes no progress; only
		// the OS-level daemons of the box remain visible.
		st.Suspended = true
		st.Offered = Demand{CPU: 0.05, MemoryMB: n.daemon.MemoryMB, DiskMBps: 0.1, DiskIOPS: 1, NetMBps: 0.02}
		st.Used = st.Offered
		st.Processes = 40
		st.Threads = 180
		st.OpenFDs = 300
		st.RTTms = 0.3 + eff.AddRTTms
		st.RunningTasks = n.RunningTasks()
		st.TaskStall = suspendStall
		n.State = st
		return
	}

	// Offered demand: daemons + tasks + fault extras + repair traffic.
	// Track the directional split of task I/O alongside the totals.
	offered := n.daemon
	var taskDemand Demand
	var readRate, writeRate, rxRate, txRate float64
	// Advance the node-level burstiness process shared by this tick's
	// tasks (HDFS read waves, shuffle rounds and spill storms hit a box's
	// tasks together). Blending it with each task's own activity keeps
	// the different per-task resource aggregates (total CPU vs total disk
	// demand) highly correlated — the source of the stable high metric
	// associations the invariant layer mines.
	if n.activity == 0 {
		n.activity = 1
	}
	n.activity = 1 + 0.7*(n.activity-1) + c.rng.Normal(0, 0.18)
	if n.activity < 0.35 {
		n.activity = 0.35
	}
	if n.activity > 1.7 {
		n.activity = 1.7
	}
	accumulate := func(t *Task) {
		// Advance the task's own bursty-activity process, then offer
		// demand in proportion to the node/task blend.
		t.activity = 1 + 0.7*(t.activity-1) + c.rng.Normal(0, 0.18)
		if t.activity < 0.35 {
			t.activity = 0.35
		}
		if t.activity > 1.7 {
			t.activity = 1.7
		}
		t.blend = 0.75*n.activity + 0.25*t.activity
		r := t.Spec.rates().scale(t.blend)
		offered.Add(r)
		taskDemand.Add(r)
		if tot := t.Spec.DiskReadMB + t.Spec.DiskWriteMB; tot > 0 {
			readRate += r.DiskMBps * t.Spec.DiskReadMB / tot
			writeRate += r.DiskMBps * t.Spec.DiskWriteMB / tot
		}
		if tot := t.Spec.NetInMB + t.Spec.NetOutMB; tot > 0 {
			rxRate += r.NetMBps * t.Spec.NetInMB / tot
			txRate += r.NetMBps * t.Spec.NetOutMB / tot
		}
	}
	for _, t := range n.maps {
		accumulate(t)
	}
	for _, t := range n.reduces {
		accumulate(t)
	}
	offered.Add(eff.Extra)
	offered.NetMBps += repairs.netOut[n.ID]
	offered.DiskMBps += repairs.write[n.ID]
	offered.NetMBps += cross.tx[n.ID] + cross.rx[n.ID]
	offered.DiskMBps += cross.read[n.ID] + cross.write[n.ID]
	// Failed block writes retry through the whole pipeline: each failed
	// packet costs its disk write and network hop again (Block-R).
	if eff.WriteFailProb > 0 {
		retry := writeRate * eff.WriteFailProb * 2
		offered.DiskMBps += retry
		offered.NetMBps += retry
		writeRate += retry
		rxRate += retry
	}

	// Effective capacities after network faults.
	netCap := n.Caps.NetMBps * eff.NetCapScale
	if netCap < 1 {
		netCap = 1
	}

	sat := func(offered, cap float64) float64 {
		if offered <= cap {
			return 0
		}
		return offered/cap - 1
	}
	st.Offered = offered
	st.CPUSat = sat(offered.CPU, n.Caps.CPUCores)
	st.MemSat = sat(offered.MemoryMB, n.Caps.MemoryMB)
	st.DiskSat = sat(offered.DiskMBps, n.Caps.DiskMBps)
	st.NetSat = sat(offered.NetMBps, netCap)

	// Progress factors: share of demanded resources actually granted.
	cpuF := 1.0
	if offered.CPU > n.Caps.CPUCores {
		cpuF = n.Caps.CPUCores / offered.CPU
	}
	diskF := 1.0
	if offered.DiskMBps > n.Caps.DiskMBps {
		diskF = n.Caps.DiskMBps / offered.DiskMBps
	}
	netF := 1.0
	if offered.NetMBps > netCap {
		netF = netCap / offered.NetMBps
	}
	// Memory oversubscription thrashes everything.
	memF := 1.0
	if st.MemSat > 0 {
		memF = 1 / (1 + 2*st.MemSat)
	}
	// Packet loss wastes goodput beyond the retransmitted bytes.
	lossF := 1 - 1.5*eff.DropRate
	if lossF < 0.1 {
		lossF = 0.1
	}

	// Tasks are record loops — read, process, emit — so every work
	// dimension advances in lockstep at the speed of the most contended
	// dimension. This is what couples a node's metrics under normal
	// operation (disk, network and CPU activity all scale together with
	// task progress) and what makes fault decouplings structural: a CPU
	// hog throttles the job's I/O along with its compute, while the hog's
	// own demand keeps the CPU metrics pinned.
	lockstep := bottleneckSpeed(taskDemand, n.Caps, netCap, cpuF, diskF, netF, memF, lossF, eff)
	st.TaskStall = 1/lockstep - 1

	// Per-dimension observable speeds: a dimension whose byte volume is
	// too small to gate task completion (and so is excluded from the
	// lockstep bottleneck) is still throttled by its own contention and
	// fault factors — delayed packets slow even a tiny transfer. Observed
	// throughput uses the stricter of the lockstep and the dimension's
	// own factor.
	baseSpeed := eff.TaskSpeedFactor * memF
	obsDisk := diskF * eff.DiskSpeedFactor * baseSpeed
	if obsDisk > lockstep {
		obsDisk = lockstep
	}
	obsNet := netF * eff.NetSpeedFactor * lossF * baseSpeed
	if obsNet > lockstep {
		obsNet = lockstep
	}

	// Actual consumption: daemons and hogs use what they demand; the
	// tasks consume in proportion to their real progress (a stalled task
	// burns no CPU and issues no I/O). Memory is resident regardless of
	// progress speed.
	actual := n.daemon
	actual.Add(eff.Extra)
	actual.CPU += taskDemand.CPU * lockstep
	actual.DiskMBps += taskDemand.DiskMBps*lockstep + repairs.write[n.ID] + repairs.netOut[n.ID]
	actual.DiskMBps += cross.read[n.ID] + cross.write[n.ID]
	actual.DiskIOPS += taskDemand.DiskIOPS * lockstep
	actual.NetMBps += taskDemand.NetMBps*lockstep + repairs.write[n.ID] + repairs.netOut[n.ID]
	actual.NetMBps += cross.tx[n.ID] + cross.rx[n.ID]
	actual.MemoryMB += taskDemand.MemoryMB
	clip := func(v, cap float64) float64 {
		if v > cap {
			return cap
		}
		return v
	}
	st.Used.CPU = clip(actual.CPU, n.Caps.CPUCores)
	st.Used.MemoryMB = clip(actual.MemoryMB, n.Caps.MemoryMB)
	st.Used.DiskMBps = clip(actual.DiskMBps, n.Caps.DiskMBps)
	st.Used.DiskIOPS = clip(actual.DiskIOPS, n.Caps.DiskIOPS)
	st.Used.NetMBps = clip(actual.NetMBps, netCap)

	// Directional I/O as observed: the tasks' nominal rates scaled by
	// their actual progress speed, plus re-replication repair traffic
	// (reads and tx at the source, writes and rx at the destination).
	st.DiskReadMBps = readRate*obsDisk + repairs.netOut[n.ID] + cross.read[n.ID]
	st.DiskWriteMBps = writeRate*obsDisk + repairs.write[n.ID] + cross.write[n.ID]
	st.NetTxMBps = txRate*obsNet + repairs.netOut[n.ID] + cross.tx[n.ID]
	st.NetRxMBps = rxRate*obsNet + repairs.write[n.ID] + cross.rx[n.ID]

	// Advance tasks at the lockstep speed. Reduce tasks additionally run
	// at the per-kind factor: a partition-skew straggler progresses slower
	// without any change in its per-tick resource shape.
	var finishedNow int
	advance := func(list []*Task, kindSpeed float64) []*Task {
		speed := lockstep * kindSpeed
		keep := list[:0]
		for _, t := range list {
			r := t.Spec.rates().scale(t.blend)
			t.cpuLeft -= r.CPU * speed * TickSeconds
			t.diskLeft -= r.DiskMBps * speed * TickSeconds
			t.netLeft -= r.NetMBps * speed * TickSeconds
			if t.cpuLeft < 0 {
				t.cpuLeft = 0
			}
			if t.diskLeft < 0 {
				t.diskLeft = 0
			}
			if t.netLeft < 0 {
				t.netLeft = 0
			}
			if t.cancelled {
				// The other copy won; the accounting happened at cancel
				// time, this one just vacates its slot.
				continue
			}
			if t.done() {
				t.Job.running--
				t.Job.finished++
				finishedNow++
				dur := c.tick - t.startTick
				if t.Kind == KindMap {
					t.Job.mapDurations = append(t.Job.mapDurations, dur)
				} else {
					t.Job.reduceDurations = append(t.Job.reduceDurations, dur)
				}
				if t.twin != nil && !t.twin.cancelled {
					// Cancel the losing copy now: it may sit on a frozen
					// node whose task list never advances, so the job
					// accounting cannot wait for its removal.
					t.twin.cancelled = true
					if t.twin.Node != nil {
						t.Job.running--
					}
				}
				continue
			}
			keep = append(keep, t)
		}
		return keep
	}
	n.maps = advance(n.maps, 1)
	n.reduces = advance(n.reduces, eff.ReduceSpeedFactor)

	// Observable process-table state.
	st.RunningMaps = len(n.maps)
	st.RunningReduces = len(n.reduces)
	st.RunningTasks = n.RunningTasks()
	st.TasksFinished = finishedNow
	st.Processes = 60 + 2*st.RunningTasks + eff.ExtraProcesses
	// Thread pools and descriptor tables breathe with the work the tasks
	// actually do (JVM worker threads, spill files, shuffle sockets).
	st.Threads = 380 + 25*st.RunningTasks + int(14*st.Used.CPU) + eff.ExtraThreads
	st.OpenFDs = 450 + 40*st.RunningTasks + int(2.5*(st.NetRxMBps+st.NetTxMBps)+1.5*st.Used.DiskMBps) + eff.ExtraFDs

	// Network health. RTT rises with switch-buffer occupancy (traffic
	// relative to NIC capacity) and congestion; a small baseline retrans
	// rate scales with traffic. Both therefore carry the task-activity
	// signal in the normal state — which is what lets their fault-time
	// behaviour (pinned at 800 ms under Net-delay, erratic loss-driven
	// retransmissions under Net-drop) register as invariant violations.
	traffic := st.NetRxMBps + st.NetTxMBps
	congestion := st.NetSat * 2.5
	st.RTTms = 0.2 + 25*traffic/netCap + congestion + eff.AddRTTms
	st.DropRate = eff.DropRate
	trafficPkts := traffic * 800 // ~1.25 KB average packet
	st.Retransmits = 0.004*trafficPkts + trafficPkts*eff.DropRate + eff.AddRetrans + 0.02*trafficPkts*st.NetSat

	n.State = st
}

// suspendStall is the TaskStall value reported for suspended nodes: frozen
// tasks retire essentially no instructions, so their effective CPI is very
// high.
const suspendStall = 6.0

// bottleneckSpeed computes the lockstep progress speed of the node's task
// mix: the speed of the most contended dimension, since record-loop tasks
// cannot out-run their slowest resource — a disk hog stalls an IO-reading
// job even if the job's byte demand looks small next to its CPU demand.
// Dimensions carrying under 2 % of the mix are ignored (a task with no real
// network work cannot be network-stalled). The returned speed is in
// (0.1, 1].
func bottleneckSpeed(td Demand, caps Caps, netCap, cpuF, diskF, netF, memF, lossF float64, eff *Effects) float64 {
	wCPU := td.CPU / caps.CPUCores
	wDisk := td.DiskMBps / caps.DiskMBps
	wNet := td.NetMBps / netCap
	total := wCPU + wDisk + wNet
	if total <= 0 {
		return 1 // no tasks: nothing is stalled
	}
	// TaskSpeedFactor (freezes, lock stalls, RPC hangs) and memory
	// thrashing slow every dimension.
	minSpeed := eff.TaskSpeedFactor * memF
	const negligible = 0.02
	if wCPU > negligible*total {
		if s := cpuF * eff.TaskSpeedFactor * memF; s < minSpeed {
			minSpeed = s
		}
	}
	if wDisk > negligible*total {
		if s := diskF * eff.DiskSpeedFactor * eff.TaskSpeedFactor * memF; s < minSpeed {
			minSpeed = s
		}
	}
	if wNet > negligible*total {
		if s := netF * eff.NetSpeedFactor * lossF * eff.TaskSpeedFactor * memF; s < minSpeed {
			minSpeed = s
		}
	}
	if minSpeed < 0.1 {
		minSpeed = 0.1
	}
	if minSpeed > 1 {
		minSpeed = 1
	}
	return minSpeed
}

// runningMaps counts a job's currently placed map tasks.
func (j *Job) runningMaps() int {
	// running counts both kinds; during the mapping state only maps run.
	if j.State == JobMapping {
		return j.running
	}
	return 0
}

// reapJobs marks finished jobs done.
func (c *Cluster) reapJobs() {
	keep := c.active[:0]
	for _, j := range c.active {
		if j.finished >= j.total {
			j.State = JobDone
			j.DoneTick = c.tick
			continue
		}
		keep = append(keep, j)
	}
	c.active = keep
}

// RunUntilDone steps the cluster until job completes or maxTicks elapse,
// calling observe (if non-nil) after every tick. It returns an error on
// timeout, which in practice means a fault wedged the job — callers that
// inject Suspend-class faults pass a budget and treat timeout as data.
func (c *Cluster) RunUntilDone(job *Job, maxTicks int, observe func(tick int)) error {
	for i := 0; i < maxTicks; i++ {
		c.Step()
		if observe != nil {
			observe(c.tick)
		}
		if job.Done() {
			return nil
		}
	}
	return fmt.Errorf("cluster: job %d not done after %d ticks", job.ID, maxTicks)
}
