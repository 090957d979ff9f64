package cluster

import (
	"testing"
)

// testSpec builds a small batch job: m map tasks and r reduce tasks of
// moderate footprint that finish in a few ticks each.
func testSpec(name string, m, r int) JobSpec {
	spec := JobSpec{Name: name, Workload: name, InputMB: float64(m) * BlockSizeMB}
	for i := 0; i < m; i++ {
		spec.MapTasks = append(spec.MapTasks, TaskSpec{
			CPUWork: 30, DiskReadMB: 64, DiskWriteMB: 16, NetOutMB: 8,
			MemoryMB: 400, NominalSeconds: 30,
		})
	}
	for i := 0; i < r; i++ {
		spec.ReduceTasks = append(spec.ReduceTasks, TaskSpec{
			CPUWork: 20, DiskWriteMB: 48, NetInMB: 32,
			MemoryMB: 500, NominalSeconds: 30,
		})
	}
	return spec
}

func TestClusterTopology(t *testing.T) {
	c := New(4, 1)
	if len(c.Nodes) != 5 {
		t.Fatalf("nodes = %d, want 5", len(c.Nodes))
	}
	master := c.Nodes[0]
	if master.Role != RoleMaster || master.ID != 0 {
		t.Errorf("master = %+v", master)
	}
	if len(c.Slaves()) != 4 {
		t.Errorf("slaves = %d", len(c.Slaves()))
	}
	if n := c.Nodes[2]; n.ID != 2 || n.IP != "10.0.0.3" {
		t.Errorf("node 2 = %+v", n)
	}
	if master.FreeMapSlots() != 0 {
		t.Error("master must have no task slots")
	}
}

func TestBatchJobRunsToCompletion(t *testing.T) {
	c := New(4, 2)
	j := c.Submit(testSpec("wordcount", 12, 4))
	if err := c.RunUntilDone(j, 200, nil); err != nil {
		t.Fatal(err)
	}
	if j.State != JobDone {
		t.Errorf("state = %v", j.State)
	}
	if j.DurationTicks() <= 0 {
		t.Errorf("duration = %d", j.DurationTicks())
	}
	if j.StartTick < j.SubmitTick {
		t.Errorf("start %d before submit %d", j.StartTick, j.SubmitTick)
	}
}

func TestFIFOExclusivity(t *testing.T) {
	c := New(4, 3)
	a := c.Submit(testSpec("a", 8, 2))
	b := c.Submit(testSpec("b", 8, 2))
	// While a runs, b must stay queued.
	c.Step()
	c.Step()
	if a.State == JobQueued {
		t.Fatal("job a should have started")
	}
	if b.State != JobQueued {
		t.Fatalf("job b state = %v, want queued (FIFO exclusivity)", b.State)
	}
	if err := c.RunUntilDone(b, 400, nil); err != nil {
		t.Fatal(err)
	}
	if b.StartTick < a.DoneTick {
		t.Errorf("b started at %d before a finished at %d", b.StartTick, a.DoneTick)
	}
}

func TestInteractiveJobsShare(t *testing.T) {
	c := New(4, 4)
	spec := testSpec("tpcds", 4, 1)
	spec.Interactive = true
	a := c.Submit(spec)
	b := c.Submit(spec)
	c.Step()
	if a.State == JobQueued || b.State == JobQueued {
		t.Error("interactive jobs must start immediately and share the cluster")
	}
	for i := 0; i < 300 && !(a.Done() && b.Done()); i++ {
		c.Step()
	}
	if !a.Done() || !b.Done() {
		t.Fatal("interactive jobs did not finish")
	}
	// They must have overlapped.
	if a.DoneTick <= b.StartTick && b.DoneTick <= a.StartTick {
		t.Error("interactive jobs did not overlap")
	}
}

func TestMapBeforeReduce(t *testing.T) {
	c := New(4, 5)
	j := c.Submit(testSpec("sort", 8, 4))
	sawReduceWhileMapping := false
	for i := 0; i < 300 && !j.Done(); i++ {
		c.Step()
		if j.State == JobMapping {
			for _, n := range c.Slaves() {
				if len(n.reduces) > 0 {
					sawReduceWhileMapping = true
				}
			}
		}
	}
	if sawReduceWhileMapping {
		t.Error("reduce tasks ran during the map phase")
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
}

func TestContentionSlowsJob(t *testing.T) {
	// The same job must take longer when an external hog saturates CPU.
	run := func(hog bool) int {
		c := New(4, 6)
		if hog {
			for _, n := range c.Slaves() {
				n.Attach(&perturbFunc{name: "cpu-hog", f: func(tick int, node *Node, eff *Effects) {
					eff.Extra.CPU += 12 // well beyond the 8 cores
				}})
			}
		}
		j := c.Submit(testSpec("wc", 16, 4))
		if err := c.RunUntilDone(j, 1000, nil); err != nil {
			t.Fatal(err)
		}
		return j.DurationTicks()
	}
	base := run(false)
	slow := run(true)
	if slow <= base {
		t.Errorf("hogged run (%d ticks) not slower than baseline (%d ticks)", slow, base)
	}
}

// perturbFunc adapts a closure to the Perturbation interface for tests.
type perturbFunc struct {
	name string
	f    func(tick int, node *Node, eff *Effects)
}

func (p *perturbFunc) Name() string                          { return p.name }
func (p *perturbFunc) Apply(tick int, n *Node, eff *Effects) { p.f(tick, n, eff) }

func TestSuspendFreezesNode(t *testing.T) {
	c := New(4, 7)
	victim := c.Slaves()[0]
	victim.Attach(&perturbFunc{name: "suspend", f: func(tick int, node *Node, eff *Effects) {
		eff.Suspend = true
	}})
	j := c.Submit(testSpec("wc", 8, 2))
	for i := 0; i < 50; i++ {
		c.Step()
	}
	if !victim.State.Suspended {
		t.Error("victim not marked suspended")
	}
	if victim.State.RunningMaps > 0 && victim.State.TasksFinished > 0 {
		t.Error("suspended node finished tasks")
	}
	// Other slaves keep the job moving.
	if err := c.RunUntilDone(j, 1000, nil); err != nil {
		t.Fatalf("job wedged despite three healthy slaves: %v", err)
	}
}

func TestSaturationReporting(t *testing.T) {
	c := New(1, 8)
	n := c.Slaves()[0]
	n.Attach(&perturbFunc{name: "hog", f: func(tick int, node *Node, eff *Effects) {
		eff.Extra.CPU += 16
		eff.Extra.DiskMBps += 300
	}})
	c.Step()
	if n.State.CPUSat <= 0 {
		t.Errorf("CPUSat = %v, want > 0", n.State.CPUSat)
	}
	if n.State.DiskSat <= 0 {
		t.Errorf("DiskSat = %v, want > 0", n.State.DiskSat)
	}
	if n.State.NetSat != 0 {
		t.Errorf("NetSat = %v, want 0", n.State.NetSat)
	}
	if n.State.Used.CPU > n.Caps.CPUCores+1e-9 {
		t.Errorf("used CPU %v exceeds capacity", n.State.Used.CPU)
	}
}

func TestNoSaturationWithHeadroom(t *testing.T) {
	// Fig. 2's mechanism: a mild disturbance below capacity leaves
	// saturation at zero.
	c := New(1, 9)
	n := c.Slaves()[0]
	n.Attach(&perturbFunc{name: "mild", f: func(tick int, node *Node, eff *Effects) {
		eff.Extra.CPU += 2.4 // 30% of 8 cores
	}})
	c.Step()
	if n.State.CPUSat != 0 {
		t.Errorf("CPUSat = %v, want 0 for sub-capacity disturbance", n.State.CPUSat)
	}
}

func TestHDFSAllocation(t *testing.T) {
	c := New(4, 10)
	j := c.Submit(testSpec("wc", 8, 0))
	if len(j.blocks) != 8 {
		t.Fatalf("blocks = %d, want 8", len(j.blocks))
	}
	for _, id := range j.blocks {
		b := c.name.blocks[id]
		if len(b.Replicas) != ReplicationFactor {
			t.Errorf("block %d has %d replicas", id, len(b.Replicas))
		}
	}
}

func TestBlockCorruptionAndRepair(t *testing.T) {
	c := New(4, 11)
	c.Submit(testSpec("wc", 8, 0))
	victim := c.Slaves()[0]
	// One tick's corruption and repair phases, run apart: inside Step the
	// repair follows the corruption at once and no replica stays corrupt
	// long enough to be seen.
	effects := map[int]*Effects{}
	for _, n := range c.Nodes {
		effects[n.ID] = &Effects{}
	}
	effects[victim.ID].BlockCorruptProb = 1
	c.applyBlockCorruption(effects)
	if got := corruptReplicas(c.name); got != 1 {
		t.Fatalf("%d corrupt replicas after a certain corruption, want 1", got)
	}
	rw := c.planRepairs()
	if got := corruptReplicas(c.name); got != 0 {
		t.Fatalf("%d corrupt replicas after the repair phase, want 0", got)
	}
	if rw.write[victim.ID] == 0 {
		t.Errorf("repair charged no re-replication write to the victim: %+v", rw)
	}
}

func TestTaskFailureRestarts(t *testing.T) {
	c := New(4, 12)
	for _, n := range c.Slaves() {
		n.Attach(&perturbFunc{name: "npe", f: func(tick int, node *Node, eff *Effects) {
			eff.TaskFailureProb = 0.3
		}})
	}
	j := c.Submit(testSpec("wc", 8, 2))
	if err := c.RunUntilDone(j, 2000, nil); err != nil {
		t.Fatal(err)
	}
	// With 30% failure probability per tick some restarts are certain.
	restarts := 0
	for _, task := range append(j.pendingMaps, j.pendingReduces...) {
		restarts += task.Restarts
	}
	// Finished tasks carry their restart counts too, but they are no
	// longer reachable; duration is the observable effect.
	base := func() int {
		cb := New(4, 12)
		jb := cb.Submit(testSpec("wc", 8, 2))
		if err := cb.RunUntilDone(jb, 2000, nil); err != nil {
			t.Fatal(err)
		}
		return jb.DurationTicks()
	}()
	if j.DurationTicks() <= base {
		t.Errorf("failing run (%d) not slower than clean run (%d)", j.DurationTicks(), base)
	}
}

func TestRPCHangStallsScheduling(t *testing.T) {
	run := func(delay float64) int {
		c := New(4, 13)
		if delay > 0 {
			for _, n := range c.Slaves() {
				d := delay
				n.Attach(&perturbFunc{name: "rpc-hang", f: func(tick int, node *Node, eff *Effects) {
					eff.HeartbeatDelaySec = d
				}})
			}
		}
		j := c.Submit(testSpec("wc", 16, 4))
		if err := c.RunUntilDone(j, 3000, nil); err != nil {
			t.Fatal(err)
		}
		return j.DurationTicks()
	}
	if slow, base := run(40), run(0); slow <= base {
		t.Errorf("rpc-hang run (%d) not slower than baseline (%d)", slow, base)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int, float64) {
		c := New(4, 99)
		j := c.Submit(testSpec("wc", 10, 3))
		if err := c.RunUntilDone(j, 500, nil); err != nil {
			t.Fatal(err)
		}
		return j.DurationTicks(), c.Slaves()[0].State.Used.CPU
	}
	d1, u1 := run()
	d2, u2 := run()
	if d1 != d2 || u1 != u2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", d1, u1, d2, u2)
	}
}

func TestJobString(t *testing.T) {
	c := New(2, 14)
	j := c.Submit(testSpec("wc", 1, 1))
	if s := j.String(); s == "" {
		t.Error("empty String()")
	}
	if RoleMaster.String() != "master" || RoleSlave.String() != "slave" {
		t.Error("Role.String broken")
	}
	if KindMap.String() != "map" || KindReduce.String() != "reduce" {
		t.Error("TaskKind.String broken")
	}
	for _, st := range []JobState{JobQueued, JobMapping, JobReducing, JobDone} {
		if st.String() == "" {
			t.Error("JobState.String empty")
		}
	}
}

func TestSpeculativeExecutionRescuesStragglers(t *testing.T) {
	// A suspended node strands its tasks; speculation reruns them
	// elsewhere and the job finishes.
	run := func() (int, int) {
		c := New(4, 30)
		victim := c.Slaves()[0]
		j := c.Submit(testSpec("wc", 16, 4))
		// Freeze the victim only after it has picked up tasks.
		frozen := false
		backups := map[*Task]bool{}
		for i := 0; i < 2000 && !j.Done(); i++ {
			if !frozen && victim.RunningTasks() > 0 {
				victim.Attach(&perturbFunc{name: "suspend", f: func(tick int, node *Node, eff *Effects) {
					eff.Suspend = true
				}})
				frozen = true
			}
			c.Step()
			noteBackups(c, backups)
		}
		if !j.Done() {
			return -1, len(backups)
		}
		return j.DurationTicks(), len(backups)
	}
	dur, launches := run()
	if dur < 0 {
		t.Fatal("job wedged despite speculation")
	}
	if launches == 0 {
		t.Fatal("no speculative copies launched for stranded tasks")
	}
}

func TestSpeculationIdleOnHealthyRuns(t *testing.T) {
	// A healthy homogeneous run has no 2x stragglers; speculation should
	// stay quiet (no wasted work).
	c := New(4, 31)
	j := c.Submit(testSpec("wc", 12, 4))
	backups := map[*Task]bool{}
	if err := c.RunUntilDone(j, 500, func(int) { noteBackups(c, backups) }); err != nil {
		t.Fatal(err)
	}
	if len(backups) > 2 {
		t.Errorf("healthy run launched %d speculative copies", len(backups))
	}
}

// noteBackups records the speculative copies placed on any slave right now.
// A copy runs for several ticks, so calling it after every Step sees each.
func noteBackups(c *Cluster, seen map[*Task]bool) {
	for _, n := range c.slaves {
		for _, t := range append(append([]*Task(nil), n.maps...), n.reduces...) {
			if t.Speculative {
				seen[t] = true
			}
		}
	}
}

// corruptReplicas counts the replicas currently marked corrupt.
func corruptReplicas(nn *NameNode) int {
	n := 0
	for _, b := range nn.blocks {
		for _, c := range b.Corrupt {
			if c {
				n++
			}
		}
	}
	return n
}
