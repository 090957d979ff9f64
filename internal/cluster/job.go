package cluster

import "fmt"

// TaskKind distinguishes map from reduce tasks.
type TaskKind int

const (
	// KindMap tasks read input blocks and emit intermediate data.
	KindMap TaskKind = iota
	// KindReduce tasks shuffle intermediate data in and write output.
	KindReduce
)

func (k TaskKind) String() string {
	if k == KindMap {
		return "map"
	}
	return "reduce"
}

// TaskSpec declares the resource footprint of one task. Work amounts are
// totals; NominalSeconds sets the duration the task would take alone on an
// idle node, which fixes its per-second demand rates.
type TaskSpec struct {
	CPUWork        float64 // core-seconds
	DiskReadMB     float64
	DiskWriteMB    float64
	NetInMB        float64 // shuffle/replication inbound
	NetOutMB       float64
	MemoryMB       float64 // resident while running
	NominalSeconds float64
}

// rates returns the nominal per-second demand of the task.
func (s TaskSpec) rates() Demand {
	d := s.NominalSeconds
	if d <= 0 {
		d = 1
	}
	diskMB := (s.DiskReadMB + s.DiskWriteMB) / d
	return Demand{
		CPU:      s.CPUWork / d,
		MemoryMB: s.MemoryMB,
		DiskMBps: diskMB,
		DiskIOPS: diskMB * 4, // ~4 IOPS per MB/s at 256 KB requests
		NetMBps:  (s.NetInMB + s.NetOutMB) / d,
	}
}

// Task is a scheduled task instance.
type Task struct {
	Job  *Job
	Kind TaskKind
	Spec TaskSpec
	Node *Node

	// Remaining work per dimension.
	cpuLeft  float64
	diskLeft float64
	netLeft  float64

	// startTick records when the task was last placed on a node, and
	// twin links speculative copies: Hadoop re-executes stragglers on
	// another node and keeps whichever copy finishes first.
	startTick int
	twin      *Task
	cancelled bool
	// Speculative marks a task as the backup copy.
	Speculative bool

	// activity is the task's own bursty demand factor, an AR(1) process
	// around 1 updated every tick. Real tasks alternate read bursts,
	// compute stretches and spills; this is the within-run variance that
	// lets pairwise association measures see the couplings between a
	// node's metrics. blend is the effective factor for the current tick
	// after mixing in the node-level burstiness component.
	activity float64
	blend    float64

	// Restarts counts failure-induced restarts (H-1036 style bugs).
	Restarts int
}

func newTask(job *Job, kind TaskKind, spec TaskSpec) *Task {
	t := &Task{Job: job, Kind: kind, Spec: spec, activity: 1, blend: 1}
	t.reset()
	return t
}

func (t *Task) reset() {
	t.cpuLeft = t.Spec.CPUWork
	t.diskLeft = t.Spec.DiskReadMB + t.Spec.DiskWriteMB
	t.netLeft = t.Spec.NetInMB + t.Spec.NetOutMB
}

// done reports whether every work dimension is exhausted.
func (t *Task) done() bool {
	return t.cpuLeft <= 1e-9 && t.diskLeft <= 1e-9 && t.netLeft <= 1e-9
}

// JobState tracks a job through its lifecycle.
type JobState int

const (
	// JobQueued jobs wait in the FIFO queue.
	JobQueued JobState = iota
	// JobMapping jobs have running or pending map tasks.
	JobMapping
	// JobReducing jobs finished all maps and run reduces.
	JobReducing
	// JobDone jobs are complete.
	JobDone
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobMapping:
		return "mapping"
	case JobReducing:
		return "reducing"
	default:
		return "done"
	}
}

// JobSpec declares a job: its task footprints and scheduling class.
// Workload generators (package workload) produce JobSpecs.
type JobSpec struct {
	Name     string
	Workload string // workload type label, the paper's operation-context "type"
	// Interactive jobs (TPC-DS queries) share the cluster; batch jobs run
	// FIFO-exclusively, as Hadoop's default scheduler does (paper §2,
	// Restrictions).
	Interactive bool
	MapTasks    []TaskSpec
	ReduceTasks []TaskSpec
	// InputMB sizes the HDFS input for block placement.
	InputMB float64
}

// Job is a submitted job instance.
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState

	SubmitTick int
	StartTick  int
	DoneTick   int

	pendingMaps    []*Task
	pendingReduces []*Task
	running        int
	finished       int
	total          int

	// Completed-task durations in ticks, per kind and kept ascending, for
	// straggler detection (a task is a straggler when it has run more than
	// twice the median completion time of its kind).
	mapDurations    []int
	reduceDurations []int

	// Stage timeline for batch jobs. reduceStartTick records when the
	// scheduler flipped the job from mapping to reducing (-1 while
	// mapping); the first shuffleTicks ticks of the reducing state model
	// the shuffle round (reducers pulling map output across the network
	// before the reduce proper). shuffleTicks is drawn deterministically
	// from the cluster seed and job ID so the timeline is jittered per
	// run but reproducible per seed.
	reduceStartTick int
	shuffleTicks    int

	blocks []BlockID
}

func newJob(id int, spec JobSpec, tick int) *Job {
	j := &Job{ID: id, Spec: spec, State: JobQueued, SubmitTick: tick, StartTick: -1, DoneTick: -1, reduceStartTick: -1}
	for _, ts := range spec.MapTasks {
		j.pendingMaps = append(j.pendingMaps, newTask(j, KindMap, ts))
	}
	for _, ts := range spec.ReduceTasks {
		j.pendingReduces = append(j.pendingReduces, newTask(j, KindReduce, ts))
	}
	j.total = len(j.pendingMaps) + len(j.pendingReduces)
	return j
}

// Done reports whether the job has completed.
func (j *Job) Done() bool { return j.State == JobDone }

// StageAt returns the execution stage the job was in at the given tick:
// "map", "shuffle" or "reduce" from the scheduler timeline, or "" when the
// job was not running at that tick.
func (j *Job) StageAt(tick int) string {
	if j.StartTick < 0 || tick < j.StartTick {
		return ""
	}
	if j.DoneTick >= 0 && tick > j.DoneTick {
		return ""
	}
	if j.reduceStartTick < 0 || tick < j.reduceStartTick {
		return "map"
	}
	if tick < j.reduceStartTick+j.shuffleTicks {
		return "shuffle"
	}
	return "reduce"
}

// DurationTicks returns the ticks from start to completion, or -1 while
// running.
func (j *Job) DurationTicks() int {
	if j.DoneTick < 0 || j.StartTick < 0 {
		return -1
	}
	return j.DoneTick - j.StartTick
}

func (j *Job) String() string {
	return fmt.Sprintf("job %d (%s, %s): %d/%d tasks", j.ID, j.Spec.Name, j.State, j.finished, j.total)
}
