package workload

import (
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
)

func TestTypesAndValidity(t *testing.T) {
	if len(Types()) != 5 {
		t.Errorf("Types = %v", Types())
	}
	for _, ty := range Types() {
		if !Valid(ty) {
			t.Errorf("%v should be valid", ty)
		}
	}
	if Valid("nosuch") {
		t.Error("unknown type should be invalid")
	}
	if IsInteractive(Wordcount) || !IsInteractive(TPCDS) {
		t.Error("interactivity flags wrong")
	}
}

func TestNewJobScalesWithInput(t *testing.T) {
	rng := stats.NewRNG(1)
	small := NewJob(Wordcount, Params{InputMB: 1024, RNG: rng})
	big := NewJob(Wordcount, Params{InputMB: 4096, RNG: rng})
	if len(big.MapTasks) != 4*len(small.MapTasks) {
		t.Errorf("maps: %d vs %d, want 4x", len(big.MapTasks), len(small.MapTasks))
	}
	if len(small.MapTasks) != 16 {
		t.Errorf("1 GB should yield 16 map tasks, got %d", len(small.MapTasks))
	}
	if small.Interactive {
		t.Error("batch job flagged interactive")
	}
	if small.Workload != "wordcount" {
		t.Errorf("workload label = %q", small.Workload)
	}
}

func TestNewJobDefaults(t *testing.T) {
	spec := NewJob(Sort, Params{RNG: stats.NewRNG(2)})
	if spec.InputMB != 15*1024 {
		t.Errorf("default input = %v, want 15 GB", spec.InputMB)
	}
	if len(spec.MapTasks) != 240 {
		t.Errorf("maps = %d, want 240 for 15 GB", len(spec.MapTasks))
	}
}

func TestNewJobPanicsOnInteractive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewJob(TPCDS) must panic")
		}
	}()
	NewJob(TPCDS, Params{RNG: stats.NewRNG(3)})
}

func TestProfilesAreDistinct(t *testing.T) {
	rng := stats.NewRNG(4)
	wc := NewJob(Wordcount, Params{InputMB: 1024, RNG: rng, Jitter: 1e-9})
	srt := NewJob(Sort, Params{InputMB: 1024, RNG: rng, Jitter: 1e-9})
	grep := NewJob(Grep, Params{InputMB: 1024, RNG: rng, Jitter: 1e-9})
	bayes := NewJob(Bayes, Params{InputMB: 1024, RNG: rng, Jitter: 1e-9})
	// Wordcount maps are more CPU-intense than Sort maps; Sort shuffles
	// far more; Bayes is the most compute-heavy; Grep writes the least.
	if wc.MapTasks[0].CPUWork <= srt.MapTasks[0].CPUWork {
		t.Error("wordcount maps should out-compute sort maps")
	}
	if srt.MapTasks[0].NetOutMB <= wc.MapTasks[0].NetOutMB {
		t.Error("sort should shuffle more than wordcount")
	}
	if bayes.MapTasks[0].CPUWork <= wc.MapTasks[0].CPUWork {
		t.Error("bayes should out-compute wordcount")
	}
	if grep.MapTasks[0].DiskWriteMB >= srt.MapTasks[0].DiskWriteMB {
		t.Error("grep should write less than sort")
	}
}

func TestJitterVariesRuns(t *testing.T) {
	a := NewJob(Wordcount, Params{InputMB: 512, RNG: stats.NewRNG(5)})
	b := NewJob(Wordcount, Params{InputMB: 512, RNG: stats.NewRNG(6)})
	if a.MapTasks[0].CPUWork == b.MapTasks[0].CPUWork {
		t.Error("different seeds should jitter task footprints")
	}
	// Jitter stays within the configured band.
	for _, task := range a.MapTasks {
		if task.CPUWork < 34*0.9 || task.CPUWork > 34*1.1 {
			t.Errorf("CPUWork %v outside ±10%% of 34", task.CPUWork)
		}
	}
}

func TestBatchJobCompletesOnCluster(t *testing.T) {
	c := cluster.New(4, 20)
	spec := NewJob(Grep, Params{InputMB: 2048, RNG: stats.NewRNG(7)})
	j := c.Submit(spec)
	if err := c.RunUntilDone(j, 2000, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQueryNames(t *testing.T) {
	if len(tpcdsTemplates) != 8 {
		t.Fatalf("templates = %d, want 8", len(tpcdsTemplates))
	}
	seen := map[string]bool{}
	for _, q := range tpcdsTemplates {
		if seen[q.name] {
			t.Errorf("duplicate query name %q", q.name)
		}
		seen[q.name] = true
	}
}

func TestSessionSubmitsAndCompletes(t *testing.T) {
	c := cluster.New(4, 21)
	s := NewSession(c, stats.NewRNG(8), 1.0)
	for i := 0; i < 60; i++ {
		s.Tick()
		c.Step()
	}
	if len(s.submitted) == 0 {
		t.Fatal("no queries submitted")
	}
	// Drain without new arrivals.
	for i := 0; i < 400; i++ {
		c.Step()
	}
	durs := s.CompletedDurations()
	if len(durs) == 0 {
		t.Fatal("no queries completed")
	}
	for _, d := range durs {
		if d < 0 {
			t.Errorf("negative duration %v", d)
		}
	}
}

func TestSessionJobsAreInteractive(t *testing.T) {
	c := cluster.New(4, 22)
	s := NewSession(c, stats.NewRNG(9), 2.0)
	j := s.SubmitQuery()
	if !j.Spec.Interactive {
		t.Error("session queries must be interactive")
	}
	if j.Spec.Workload != string(TPCDS) {
		t.Errorf("workload label = %q", j.Spec.Workload)
	}
	if j.State == cluster.JobQueued {
		t.Error("interactive query should start immediately")
	}
}

func TestSessionPickRespectsWeights(t *testing.T) {
	c := cluster.New(2, 23)
	s := NewSession(c, stats.NewRNG(10), 1.0)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[s.pick().name]++
	}
	if len(counts) != 8 {
		t.Fatalf("only %d templates drawn", len(counts))
	}
	// q1 (weight 1.4) should be drawn more often than q7 (weight 0.8).
	if counts["q1"] <= counts["q7"] {
		t.Errorf("weighting ignored: q1=%d, q7=%d", counts["q1"], counts["q7"])
	}
}
