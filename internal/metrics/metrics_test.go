package metrics

import (
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/cpi"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

func TestNamesAndIndex(t *testing.T) {
	if len(Names) != Count {
		t.Fatalf("len(Names) = %d, want %d", len(Names), Count)
	}
	seen := map[string]bool{}
	for i, n := range Names {
		if seen[n] {
			t.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
		if Index(n) != i {
			t.Errorf("Index(%q) = %d, want %d", n, Index(n), i)
		}
	}
	if Index("nosuch") != -1 {
		t.Error("Index of unknown metric should be -1")
	}
}

// collectRun runs a Wordcount job collecting metrics and CPI on slave 0.
func collectRun(t *testing.T, seed int64, attach func(n *cluster.Node)) *Trace {
	t.Helper()
	c := cluster.New(4, seed)
	if attach != nil {
		for _, n := range c.Slaves() {
			attach(n)
		}
	}
	col := NewCollectl(stats.NewRNG(seed + 500))
	smp := cpi.NewSampler(stats.NewRNG(seed + 600))
	tr := NewTrace(c.Slaves()[0].IP, "wordcount")
	spec := workload.NewJob(workload.Wordcount, workload.Params{InputMB: 2048, RNG: stats.NewRNG(seed + 700)})
	j := c.Submit(spec)
	err := c.RunUntilDone(j, 2000, func(tick int) {
		n := c.Slaves()[0]
		if err := tr.Add(col.Collect(n), smp.Sample(n, "wordcount")); err != nil {
			t.Fatal(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCollectShapeAndNonNegativity(t *testing.T) {
	tr := collectRun(t, 50, nil)
	if tr.Len() < 10 {
		t.Fatalf("trace too short: %d", tr.Len())
	}
	for m := 0; m < Count; m++ {
		if len(tr.Rows[m]) != tr.Len() {
			t.Fatalf("metric %d has %d samples, want %d", m, len(tr.Rows[m]), tr.Len())
		}
		for _, v := range tr.Rows[m] {
			if v < 0 {
				t.Fatalf("metric %s negative: %v", Names[m], v)
			}
		}
	}
	if len(tr.CPI) != tr.Len() {
		t.Errorf("CPI series length %d != %d", len(tr.CPI), tr.Len())
	}
}

func TestNormalCouplings(t *testing.T) {
	// Under normal operation, task activity drives both CPU and disk:
	// cpu.user must correlate with disk.readmb, and net packets with net
	// MB. These are exactly the associations the invariant layer mines.
	tr := collectRun(t, 51, nil)
	r1, err := stats.Pearson(tr.Rows[Index("cpu.user")], tr.Rows[Index("disk.readmb")])
	if err != nil {
		t.Fatal(err)
	}
	if r1 < 0.5 {
		t.Errorf("corr(cpu.user, disk.readmb) = %v, want strong", r1)
	}
	r2, err := stats.Pearson(tr.Rows[Index("net.rxmb")], tr.Rows[Index("net.rxpackets")])
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("corr(net.rxmb, net.rxpackets) = %v, want very strong", r2)
	}
	r3, err := stats.Pearson(tr.Rows[Index("cpu.user")], tr.Rows[Index("cpu.idle")])
	if err != nil {
		t.Fatal(err)
	}
	if r3 > -0.5 {
		t.Errorf("corr(cpu.user, cpu.idle) = %v, want strongly negative", r3)
	}
}

type memHog struct{ mb float64 }

func (h *memHog) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	eff.Extra.MemoryMB += h.mb
	eff.ExtraProcesses++
}

func TestMemHogSignature(t *testing.T) {
	normal := collectRun(t, 52, nil)
	hogged := collectRun(t, 52, func(n *cluster.Node) {
		n.Attach(&memHog{mb: 17 * 1024})
	})
	nf, _ := stats.Mean(normal.Rows[Index("mem.pagefaults")])
	hf, _ := stats.Mean(hogged.Rows[Index("mem.pagefaults")])
	if hf < nf*3 {
		t.Errorf("mem hog page faults %v not well above normal %v", hf, nf)
	}
	ns, _ := stats.Mean(normal.Rows[Index("mem.swaprate")])
	hs, _ := stats.Mean(hogged.Rows[Index("mem.swaprate")])
	if hs <= ns {
		t.Errorf("mem hog swap %v not above normal %v", hs, ns)
	}
}

type netDelay struct{ ms float64 }

func (d *netDelay) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	eff.AddRTTms += d.ms
	eff.NetCapScale = 0.3
	eff.NetSpeedFactor = 0.4
}

func TestNetDelaySignature(t *testing.T) {
	normal := collectRun(t, 53, nil)
	delayed := collectRun(t, 53, func(n *cluster.Node) {
		n.Attach(&netDelay{ms: 800})
	})
	nr, _ := stats.Mean(normal.Rows[Index("net.rttms")])
	dr, _ := stats.Mean(delayed.Rows[Index("net.rttms")])
	if dr < nr+500 {
		t.Errorf("delayed RTT %v not ~800ms above normal %v", dr, nr)
	}
}

func TestTraceSlice(t *testing.T) {
	tr := collectRun(t, 54, nil)
	sub, err := tr.Slice(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Len() != 5 || len(sub.CPI) != 5 {
		t.Errorf("slice len = %d/%d", sub.Len(), len(sub.CPI))
	}
	if sub.Rows[0][0] != tr.Rows[0][5] {
		t.Error("slice misaligned")
	}
	if _, err := tr.Slice(10, 5); err == nil {
		t.Error("inverted slice should error")
	}
	if _, err := tr.Slice(0, tr.Len()+1); err == nil {
		t.Error("overlong slice should error")
	}
}

func TestTraceAddValidatesWidth(t *testing.T) {
	tr := NewTrace("10.0.0.2", "sort")
	if err := tr.Add(make([]float64, 3), 1.0); err == nil {
		t.Error("short sample should error")
	}
	if err := tr.Add(make([]float64, Count), 1.0); err != nil {
		t.Errorf("valid sample errored: %v", err)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestCollectlDeterminism(t *testing.T) {
	a := collectRun(t, 55, nil)
	b := collectRun(t, 55, nil)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for m := 0; m < Count; m++ {
		for i := range a.Rows[m] {
			if a.Rows[m][i] != b.Rows[m][i] {
				t.Fatalf("metric %s diverged at %d", Names[m], i)
			}
		}
	}
}

// Index returns the position of a metric name, or -1.
func Index(name string) int {
	for i, n := range Names {
		if n == name {
			return i
		}
	}
	return -1
}
