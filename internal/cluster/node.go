// Package cluster implements a discrete-time simulator of a small
// Hadoop-1.x-style cluster: a master node running the JobTracker and
// NameNode, and slave nodes each running a TaskTracker and DataNode.
//
// The simulator replaces the 5-node physical testbed of the paper. It does
// not execute MapReduce programs; it executes their *resource footprint*:
// jobs are decomposed into map and reduce tasks with CPU, disk, network and
// memory work, scheduled FIFO onto task slots, progressing each 10 s tick at
// rates set by per-resource contention on their node. That is exactly the
// level of fidelity InvarNet-X consumes — per-node metric and CPI time
// series whose internal couplings exist under normal operation and break in
// fault-specific ways.
//
// Fault injectors (package faults) attach to nodes as Perturbations; the
// metric collector (package metrics) and CPI model (package cpi) read
// NodeState snapshots after every tick.
package cluster

import "fmt"

// Role distinguishes the master from the slaves.
type Role int

const (
	// RoleMaster hosts the JobTracker and NameNode.
	RoleMaster Role = iota
	// RoleSlave hosts a TaskTracker and DataNode.
	RoleSlave
)

func (r Role) String() string {
	if r == RoleMaster {
		return "master"
	}
	return "slave"
}

// Caps are the hardware capacities of a node, mirroring the paper's testbed
// machines (two 4-core 2.1 GHz Xeons, 16 GB RAM, 1 TB disk, gigabit NIC).
type Caps struct {
	CPUCores float64 // cores
	MemoryMB float64 // MB of RAM
	DiskMBps float64 // aggregate disk bandwidth, MB/s
	DiskIOPS float64 // IOPS ceiling
	NetMBps  float64 // NIC bandwidth, MB/s
}

// defaultCaps returns the paper's machine configuration.
func defaultCaps() Caps {
	return Caps{
		CPUCores: 8,
		MemoryMB: 16 * 1024,
		DiskMBps: 150,
		DiskIOPS: 400,
		NetMBps:  120,
	}
}

// Demand is a per-resource demand (or usage) vector for one tick, in the
// units of Caps (cores, MB resident, MB/s, IOPS, MB/s).
type Demand struct {
	CPU      float64
	MemoryMB float64
	DiskMBps float64
	DiskIOPS float64
	NetMBps  float64
}

// Add accumulates other into d.
func (d *Demand) Add(other Demand) {
	d.CPU += other.CPU
	d.MemoryMB += other.MemoryMB
	d.DiskMBps += other.DiskMBps
	d.DiskIOPS += other.DiskIOPS
	d.NetMBps += other.NetMBps
}

// scale returns the demand with every rate multiplied by f. Memory is left
// unscaled: a task's resident set does not fluctuate with its burstiness.
func (d Demand) scale(f float64) Demand {
	return Demand{
		CPU:      d.CPU * f,
		MemoryMB: d.MemoryMB,
		DiskMBps: d.DiskMBps * f,
		DiskIOPS: d.DiskIOPS * f,
		NetMBps:  d.NetMBps * f,
	}
}

// NodeState is the observable state of a node after a tick. The metric
// collector derives the 26 collectl-style metrics from it; the CPI model
// derives per-process CPI from the saturation fields.
type NodeState struct {
	Tick int
	// Demands offered this tick (can exceed capacity).
	Offered Demand
	// Granted usage after contention scaling (bounded by capacity).
	Used Demand
	// Saturation per resource: max(0, offered/capacity - 1). Zero while
	// the node has headroom — the property behind Fig. 2 (a 30 % CPU
	// disturbance on an unsaturated node leaves CPI untouched).
	CPUSat  float64
	MemSat  float64
	DiskSat float64
	NetSat  float64
	// Scheduler-visible state.
	RunningMaps    int
	RunningReduces int
	RunningTasks   int
	Processes      int // simulated process count (daemons + tasks + hogs)
	Threads        int // simulated thread count
	OpenFDs        int
	// Network health, shaped by net faults.
	RTTms       float64 // heartbeat round-trip estimate
	DropRate    float64 // packet loss fraction
	Retransmits float64 // retransmissions per second
	// Directional I/O after contention scaling, derived from the task mix
	// (plus replication-repair traffic), for the metric collector.
	DiskReadMBps  float64
	DiskWriteMBps float64
	NetRxMBps     float64
	NetTxMBps     float64
	// TaskStall summarises how much the node's tasks were held back this
	// tick: 0 = full speed, 1 = running at half speed, etc. It is the
	// contention signal the CPI model turns into extra cycles per
	// instruction. Suspension pins it at a large constant.
	TaskStall float64
	// Progress accounting.
	TasksFinished int
	Suspended     bool
}

// Node is one simulated machine.
type Node struct {
	ID   int
	IP   string
	Role Role
	Caps Caps
	// CPIFactor scales the node's base CPI (default 1): different CPU
	// models retire the same code at different cycle costs. Heterogeneous
	// clusters vary it, which is one of the reasons a global (no-context)
	// CPI model misfits individual nodes.
	CPIFactor float64

	// TaskTracker slots (slaves only).
	MapSlots    int
	ReduceSlots int

	// Live task lists.
	maps    []*Task
	reduces []*Task

	// DataNode storage.
	blocks map[BlockID]*Block

	// Perturbations currently attached to this node.
	perturbations []Perturbation

	// daemon baseline demand (JobTracker/NameNode or TaskTracker/DataNode
	// background activity).
	daemon Demand

	// Last computed state, re-read by collectors.
	State NodeState

	// suspended is set by the Suspend fault: the node stops heartbeating
	// and its tasks make no progress.
	suspended bool

	// activity is the node-level burstiness component shared by all tasks
	// placed here (HDFS read waves, shuffle rounds and spill storms hit a
	// box's tasks together). Blending it with each task's own activity
	// keeps different per-task resource aggregates (total CPU vs total
	// disk demand) highly correlated, which is what gives the metric
	// pairs their stable high associations.
	activity float64
}

// newNode builds a node with the standard daemon footprint.
func newNode(id int, role Role, caps Caps) *Node {
	n := &Node{
		ID:          id,
		IP:          fmt.Sprintf("10.0.0.%d", id+1),
		Role:        role,
		Caps:        caps,
		CPIFactor:   1,
		MapSlots:    4,
		ReduceSlots: 2,
		blocks:      make(map[BlockID]*Block),
	}
	if role == RoleMaster {
		n.MapSlots, n.ReduceSlots = 0, 0
		n.daemon = Demand{CPU: 0.4, MemoryMB: 1200, DiskMBps: 1.5, DiskIOPS: 12, NetMBps: 1.2}
	} else {
		n.daemon = Demand{CPU: 0.25, MemoryMB: 800, DiskMBps: 1.0, DiskIOPS: 8, NetMBps: 0.6}
	}
	return n
}

// Attach registers a perturbation (fault) on the node.
func (n *Node) Attach(p Perturbation) { n.perturbations = append(n.perturbations, p) }

// FreeMapSlots returns the number of map slots available for scheduling.
func (n *Node) FreeMapSlots() int { return n.MapSlots - len(n.maps) }

// FreeReduceSlots returns the number of reduce slots available.
func (n *Node) FreeReduceSlots() int { return n.ReduceSlots - len(n.reduces) }

// RunningTasks returns the total number of tasks currently placed here.
func (n *Node) RunningTasks() int { return len(n.maps) + len(n.reduces) }

// Perturbation is the hook fault injectors implement. Apply mutates the
// per-tick Effects for the node before resource accounting.
type Perturbation interface {
	// Apply mutates eff given the current tick.
	Apply(tick int, node *Node, eff *Effects)
}

// Effects is everything a perturbation can do to a node in one tick.
// Zero value = no effect.
type Effects struct {
	// Extra resource demand from hog processes.
	Extra Demand
	// ExtraProcesses/Threads/FDs inflate the process-table metrics
	// (thread-leak and hog faults).
	ExtraProcesses int
	ExtraThreads   int
	ExtraFDs       int
	// TaskSpeedFactor scales all task progress on the node (1 = normal,
	// 0 = frozen). Suspend sets 0; lock races set erratic values.
	TaskSpeedFactor float64
	// PerResourceSpeed scales progress of individual work dimensions;
	// zero values mean "unset" and default to 1.
	DiskSpeedFactor float64
	NetSpeedFactor  float64
	// ReduceSpeedFactor scales progress of reduce tasks only (zero unset
	// → 1). A constant per-kind slowdown leaves every intra-node coupling
	// intact — the node's metrics all scale together — which is what makes
	// partition-skew stragglers invisible to single-node invariants.
	ReduceSpeedFactor float64
	// Cross-traffic caps (zero = unlimited), effective only when the
	// cluster runs with CrossTraffic enabled. ShuffleServeCapMBps pins the
	// node's shuffle-serving transmit rate; ReplIngestCapMBps pins the
	// replication traffic the node accepts from its ring predecessor.
	// Pinning (rather than scaling) matters: MIC is scale-invariant, so a
	// proportional slowdown preserves ranks and stays invisible — a flat
	// cap decouples the served flow from the peer's demand.
	ShuffleServeCapMBps float64
	ReplIngestCapMBps   float64
	// Network health overrides.
	AddRTTms    float64
	DropRate    float64
	AddRetrans  float64
	NetCapScale float64 // scales effective NIC capacity (0 unset → 1)
	// Suspend freezes the node entirely (no heartbeats, no progress).
	Suspend bool
	// HeartbeatDelaySec adds scheduling latency (RPC-hang).
	HeartbeatDelaySec float64
	// TaskFailureProb is the per-task per-tick probability of a task
	// failing and restarting from scratch (NPE-style bugs).
	TaskFailureProb float64
	// BlockCorruptProb is the per-tick probability that a stored block
	// gets corrupted (Block-C).
	BlockCorruptProb float64
	// WriteFailProb is the probability a block write must be retried
	// (Block-R receiver exceptions).
	WriteFailProb float64
}

// mulFactor combines a multiplicative factor with a field whose zero value
// means "unset" (= 1).
func mulFactor(cur *float64, f float64) {
	if *cur == 0 {
		*cur = 1
	}
	*cur *= f
}

// ScaleTaskSpeed multiplies the task-speed factor (zero treated as 1).
// Perturbations must use these helpers rather than *= on the raw fields:
// the fields start at zero and are only defaulted to 1 after every
// perturbation has run.
func (e *Effects) ScaleTaskSpeed(f float64) { mulFactor(&e.TaskSpeedFactor, f) }

// ScaleDiskSpeed multiplies the disk progress factor (zero treated as 1).
func (e *Effects) ScaleDiskSpeed(f float64) { mulFactor(&e.DiskSpeedFactor, f) }

// ScaleNetSpeed multiplies the network progress factor (zero treated as 1).
func (e *Effects) ScaleNetSpeed(f float64) { mulFactor(&e.NetSpeedFactor, f) }

// ScaleNetCap multiplies the effective NIC capacity (zero treated as 1).
func (e *Effects) ScaleNetCap(f float64) { mulFactor(&e.NetCapScale, f) }

// ScaleReduceSpeed multiplies the reduce-task progress factor (zero
// treated as 1).
func (e *Effects) ScaleReduceSpeed(f float64) { mulFactor(&e.ReduceSpeedFactor, f) }

// normalize fills the multiplicative defaults of an Effects value.
func (e *Effects) normalize() {
	if e.TaskSpeedFactor == 0 {
		e.TaskSpeedFactor = 1
	}
	if e.DiskSpeedFactor == 0 {
		e.DiskSpeedFactor = 1
	}
	if e.NetSpeedFactor == 0 {
		e.NetSpeedFactor = 1
	}
	if e.NetCapScale == 0 {
		e.NetCapScale = 1
	}
	if e.ReduceSpeedFactor == 0 {
		e.ReduceSpeedFactor = 1
	}
}
