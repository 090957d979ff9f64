package cluster_test

import (
	"slices"
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/cpi"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// index returns the position of a metric name, or -1.
func index(name string) int { return slices.Index(metrics.Names, name) }

// collectRun runs a Wordcount job collecting metrics and CPI on slave 0.
func collectRun(t *testing.T, seed int64, attach func(n *cluster.Node)) *metrics.Trace {
	t.Helper()
	c := cluster.New(4, seed)
	if attach != nil {
		for _, n := range c.Slaves() {
			attach(n)
		}
	}
	col := cluster.NewCollectl(stats.NewRNG(seed + 500))
	smp := cpi.NewSampler(stats.NewRNG(seed + 600))
	tr := metrics.NewTrace(c.Slaves()[0].IP, "wordcount")
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
	for m := 0; m < metrics.Count; m++ {
		if len(tr.Rows[m]) != tr.Len() {
			t.Fatalf("metric %d has %d samples, want %d", m, len(tr.Rows[m]), tr.Len())
		}
		for _, v := range tr.Rows[m] {
			if v < 0 {
				t.Fatalf("metric %s negative: %v", metrics.Names[m], v)
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
	r1, err := stats.Pearson(tr.Rows[index("cpu.user")], tr.Rows[index("disk.readmb")])
	if err != nil {
		t.Fatal(err)
	}
	if r1 < 0.5 {
		t.Errorf("corr(cpu.user, disk.readmb) = %v, want strong", r1)
	}
	r2, err := stats.Pearson(tr.Rows[index("net.rxmb")], tr.Rows[index("net.rxpackets")])
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.9 {
		t.Errorf("corr(net.rxmb, net.rxpackets) = %v, want very strong", r2)
	}
	r3, err := stats.Pearson(tr.Rows[index("cpu.user")], tr.Rows[index("cpu.idle")])
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
	nf, _ := stats.Mean(normal.Rows[index("mem.pagefaults")])
	hf, _ := stats.Mean(hogged.Rows[index("mem.pagefaults")])
	if hf < nf*3 {
		t.Errorf("mem hog page faults %v not well above normal %v", hf, nf)
	}
	ns, _ := stats.Mean(normal.Rows[index("mem.swaprate")])
	hs, _ := stats.Mean(hogged.Rows[index("mem.swaprate")])
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
	nr, _ := stats.Mean(normal.Rows[index("net.rttms")])
	dr, _ := stats.Mean(delayed.Rows[index("net.rttms")])
	if dr < nr+500 {
		t.Errorf("delayed RTT %v not ~800ms above normal %v", dr, nr)
	}
}

func TestCollectlDeterminism(t *testing.T) {
	a := collectRun(t, 55, nil)
	b := collectRun(t, 55, nil)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for m := 0; m < metrics.Count; m++ {
		for i := range a.Rows[m] {
			if a.Rows[m][i] != b.Rows[m][i] {
				t.Fatalf("metric %s diverged at %d", metrics.Names[m], i)
			}
		}
	}
}
