package faults

import (
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

func TestKindSets(t *testing.T) {
	if len(EnvironmentKinds()) != 9 {
		t.Errorf("environment kinds = %d, want 9", len(EnvironmentKinds()))
	}
	if len(BugKinds()) != 6 {
		t.Errorf("bug kinds = %d, want 6", len(BugKinds()))
	}
	if len(Kinds()) != 15 {
		t.Errorf("kinds = %d, want 15", len(Kinds()))
	}
	seen := map[Kind]bool{}
	for _, k := range Kinds() {
		if seen[k] {
			t.Errorf("duplicate kind %q", k)
		}
		seen[k] = true
		if !Valid(k) {
			t.Errorf("%q should be valid", k)
		}
		if Description(k) == "" || Description(k) == "unknown fault" {
			t.Errorf("%q lacks a description", k)
		}
	}
	if Valid("nosuch") {
		t.Error("unknown kind should be invalid")
	}
	if !InteractiveOnly(Overload) || InteractiveOnly(CPUHog) {
		t.Error("InteractiveOnly misclassifies")
	}
}

func TestWindow(t *testing.T) {
	w := Window{Start: 10, End: 40}
	if w.Active(9) || !w.Active(10) || !w.Active(39) || w.Active(40) {
		t.Error("window boundary logic wrong")
	}
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New("nosuch", Window{}, stats.NewRNG(1)); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestInjectorInactiveOutsideWindow(t *testing.T) {
	rng := stats.NewRNG(2)
	inj, err := New(CPUHog, Window{Start: 5, End: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(1, 3)
	n := c.Slaves()[0]
	var eff cluster.Effects
	inj.Apply(4, n, &eff)
	if eff.Extra.CPU != 0 {
		t.Error("fault applied before window")
	}
	inj.Apply(5, n, &eff)
	if eff.Extra.CPU <= 0 {
		t.Error("fault not applied inside window")
	}
}

// effectsAt runs kind on a fresh node and returns the effects at a tick
// well inside the window.
func effectsAt(t *testing.T, kind Kind, tick int) cluster.Effects {
	t.Helper()
	inj, err := New(kind, Window{Start: 0, End: 1000}, stats.NewRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	c := cluster.New(1, 5)
	n := c.Slaves()[0]
	var eff cluster.Effects
	inj.Apply(tick, n, &eff)
	return eff
}

func TestEachFaultHasitsSignatureChannel(t *testing.T) {
	if e := effectsAt(t, CPUHog, 10); e.Extra.CPU < 8 {
		t.Errorf("cpu-hog extra CPU = %v", e.Extra.CPU)
	}
	if e := effectsAt(t, MemHog, 10); e.Extra.MemoryMB < 16*1024 {
		t.Errorf("mem-hog extra mem = %v", e.Extra.MemoryMB)
	}
	if e := effectsAt(t, DiskHog, 10); e.Extra.DiskMBps < 200 {
		t.Errorf("disk-hog extra disk = %v", e.Extra.DiskMBps)
	}
	if e := effectsAt(t, NetDrop, 10); e.DropRate < 0.05 {
		t.Errorf("net-drop drop rate = %v", e.DropRate)
	}
	if e := effectsAt(t, NetDelay, 10); e.AddRTTms < 700 {
		t.Errorf("net-delay RTT = %v", e.AddRTTms)
	}
	if e := effectsAt(t, BlockCorruption, 10); e.BlockCorruptProb <= 0 {
		t.Error("block-c has no corruption probability")
	}
	if e := effectsAt(t, Overload, 10); e.Extra.CPU <= 0 || e.Extra.NetMBps <= 0 || e.Extra.DiskMBps <= 0 {
		t.Error("overload should hit every resource")
	}
	if e := effectsAt(t, Suspend, 10); !e.Suspend {
		t.Error("suspend not suspending")
	}
	if e := effectsAt(t, RPCHang, 10); e.HeartbeatDelaySec < 10 {
		t.Errorf("rpc-hang heartbeat delay = %v", e.HeartbeatDelaySec)
	}
	if e := effectsAt(t, NPE, 10); e.TaskFailureProb <= 0 {
		t.Error("npe has no task failures")
	}
	if e := effectsAt(t, BlockReceiver, 10); e.WriteFailProb <= 0 || e.DiskSpeedFactor == 0 || e.DiskSpeedFactor >= 1 {
		t.Errorf("block-r effects = %+v", e)
	}
}

func TestThreadLeakGrows(t *testing.T) {
	inj, _ := New(ThreadLeak, Window{Start: 0, End: 100}, stats.NewRNG(6))
	c := cluster.New(1, 7)
	n := c.Slaves()[0]
	var early, late cluster.Effects
	inj.Apply(1, n, &early)
	inj.Apply(30, n, &late)
	if late.ExtraThreads <= early.ExtraThreads {
		t.Errorf("leak not growing: %d then %d", early.ExtraThreads, late.ExtraThreads)
	}
	if late.Extra.MemoryMB <= early.Extra.MemoryMB {
		t.Error("leaked threads should consume growing memory")
	}
}

func TestLockRaceNonDeterministicAcrossRuns(t *testing.T) {
	// Two Lock-R activations with different randomness must produce
	// different stall plans — the source of its poor recall in Fig. 7/8.
	mk := func(seed int64) []float64 {
		inj, _ := New(LockRace, Window{Start: 0, End: 30}, stats.NewRNG(seed))
		c := cluster.New(1, 8)
		n := c.Slaves()[0]
		var speeds []float64
		for tick := 0; tick < 30; tick++ {
			var eff cluster.Effects
			inj.Apply(tick, n, &eff)
			speeds = append(speeds, eff.TaskSpeedFactor)
		}
		return speeds
	}
	a, b := mk(1), mk(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("lock-r plans identical across different seeds")
	}
}

func TestCommInterferenceIntermittent(t *testing.T) {
	inj, _ := New(CommInterference, Window{Start: 0, End: 60}, stats.NewRNG(9))
	c := cluster.New(1, 10)
	n := c.Slaves()[0]
	stalled, clear := 0, 0
	for tick := 0; tick < 24; tick++ {
		var eff cluster.Effects
		inj.Apply(tick, n, &eff)
		if eff.AddRTTms > 0 {
			stalled++
		} else {
			clear++
		}
	}
	if stalled == 0 || clear == 0 {
		t.Errorf("h-1970 should alternate: stalled=%d clear=%d", stalled, clear)
	}
}

func TestNetDropVsNetDelayOverlap(t *testing.T) {
	// Both faults must slow the network path (the confusion source), but
	// net-delay's RTT must dwarf net-drop's.
	drop := effectsAt(t, NetDrop, 10)
	delay := effectsAt(t, NetDelay, 10)
	if drop.NetSpeedFactor >= 1 || delay.NetSpeedFactor >= 1 {
		t.Error("both net faults should slow network transfer")
	}
	if delay.AddRTTms < drop.AddRTTms*4 {
		t.Errorf("net-delay RTT %v should dwarf net-drop RTT %v", delay.AddRTTms, drop.AddRTTms)
	}
}

func TestTransformSpecMisconf(t *testing.T) {
	spec := workload.NewJob(workload.Wordcount, workload.Params{InputMB: 1024, RNG: stats.NewRNG(11)})
	out := TransformSpec(Misconf, spec)
	if len(out.MapTasks) != MisconfSplitFactor*len(spec.MapTasks) {
		t.Errorf("misconf maps = %d, want %d", len(out.MapTasks), MisconfSplitFactor*len(spec.MapTasks))
	}
	// Total CPU work grows because of per-task overhead.
	var before, after float64
	for _, ts := range spec.MapTasks {
		before += ts.CPUWork
	}
	for _, ts := range out.MapTasks {
		after += ts.CPUWork
	}
	if after <= before {
		t.Errorf("misconf total work %v should exceed original %v", after, before)
	}
	// Other faults leave the spec alone.
	same := TransformSpec(CPUHog, spec)
	if len(same.MapTasks) != len(spec.MapTasks) {
		t.Error("non-misconf TransformSpec must be identity")
	}
}

func TestMisconfSlowsJob(t *testing.T) {
	run := func(misconf bool) int {
		c := cluster.New(4, 12)
		spec := workload.NewJob(workload.Wordcount, workload.Params{InputMB: 2048, RNG: stats.NewRNG(13)})
		if misconf {
			spec = TransformSpec(Misconf, spec)
			inj, _ := New(Misconf, Window{Start: 0, End: 100000}, stats.NewRNG(14))
			for _, n := range c.Slaves() {
				n.Attach(inj)
			}
		}
		j := c.Submit(spec)
		if err := c.RunUntilDone(j, 5000, nil); err != nil {
			t.Fatal(err)
		}
		return j.DurationTicks()
	}
	if slow, base := run(true), run(false); slow <= base {
		t.Errorf("misconf run (%d ticks) not slower than clean (%d)", slow, base)
	}
}

func TestAccessors(t *testing.T) {
	w := Window{Start: 3, End: 9}
	inj, err := New(NetDrop, w, stats.NewRNG(15))
	if err != nil {
		t.Fatal(err)
	}
	if inj.kind != NetDrop || inj.window != w {
		t.Errorf("injector: %v %v", inj.kind, inj.window)
	}
}
