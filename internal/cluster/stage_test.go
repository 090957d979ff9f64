package cluster

import "testing"

// runStageTimeline runs a batch job to completion and records its stage at
// every tick.
func runStageTimeline(t *testing.T, seed int64) []string {
	t.Helper()
	c := New(4, seed)
	j := c.Submit(testSpec("sort", 12, 4))
	var timeline []string
	if err := c.RunUntilDone(j, 300, func(tick int) {
		timeline = append(timeline, j.StageAt(tick))
	}); err != nil {
		t.Fatal(err)
	}
	return timeline
}

func TestStageTimelineDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		a := runStageTimeline(t, seed)
		b := runStageTimeline(t, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: timeline lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d tick %d: stage %q vs %q", seed, i, a[i], b[i])
			}
		}
	}
}

func TestStageTimelineCoversMapShuffleReduce(t *testing.T) {
	// Long reduces so the reduce phase outlasts the 12-16 tick shuffle
	// window; short jobs legitimately finish inside it and never show a
	// "reduce" stage.
	c := New(4, 3)
	spec := testSpec("sort", 12, 4)
	for i := range spec.ReduceTasks {
		spec.ReduceTasks[i].NominalSeconds = 300
	}
	j := c.Submit(spec)
	var timeline []string
	if err := c.RunUntilDone(j, 400, func(tick int) {
		timeline = append(timeline, j.StageAt(tick))
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, s := range timeline {
		seen[s] = true
	}
	for _, want := range []string{"map", "shuffle", "reduce"} {
		if !seen[want] {
			t.Errorf("stage %q never observed in timeline %v", want, timeline)
		}
	}
	// Stages must appear in order: once shuffle starts, map never returns;
	// once reduce starts, shuffle never returns.
	rank := map[string]int{"": 0, "map": 1, "shuffle": 2, "reduce": 3}
	prev := 0
	for i, s := range timeline {
		r, ok := rank[s]
		if !ok {
			t.Fatalf("tick %d: unexpected stage %q", i, s)
		}
		if r != 0 && r < prev {
			t.Fatalf("tick %d: stage %q after %v (regression)", i, s, timeline[:i])
		}
		if r != 0 {
			prev = r
		}
	}
}

func TestShuffleJitterBounds(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for job := 0; job < 50; job++ {
			got := shuffleJitter(seed, job)
			if got < 12 || got > 16 {
				t.Fatalf("shuffleJitter(%d, %d) = %d, want 12..16", seed, job, got)
			}
			if again := shuffleJitter(seed, job); again != got {
				t.Fatalf("shuffleJitter(%d, %d) not stable: %d vs %d", seed, job, got, again)
			}
		}
	}
}

func TestCrossTrafficObservables(t *testing.T) {
	// Sum per-tick net traffic across slaves for a full run.
	run := func(crossTraffic bool) (total float64) {
		c := New(4, 11)
		c.CrossTraffic = crossTraffic
		j := c.Submit(testSpec("sort", 8, 3))
		if err := c.RunUntilDone(j, 300, func(tick int) {
			for _, n := range c.Slaves() {
				total += n.State.NetRxMBps + n.State.NetTxMBps
			}
		}); err != nil {
			t.Fatal(err)
		}
		return total
	}
	// Off-runs are deterministic: the zero-value crossWork path must be an
	// exact no-op, not a perturbation of the RNG streams.
	off1, off2 := run(false), run(false)
	if off1 != off2 {
		t.Fatalf("CrossTraffic=false not deterministic: %v vs %v", off1, off2)
	}
	// With cross traffic on, shuffle serving and replication forwarding add
	// real inter-node flow on top of the task-derived demand.
	on := run(true)
	if on <= off1 {
		t.Fatalf("CrossTraffic=true net total %v not above baseline %v", on, off1)
	}
}
