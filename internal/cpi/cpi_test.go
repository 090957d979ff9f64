package cpi

import (
	"math"
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

func TestBaseMixesPhases(t *testing.T) {
	mapOnly := baseFor("wordcount", 4, 0)
	redOnly := baseFor("wordcount", 0, 4)
	mixed := baseFor("wordcount", 2, 2)
	if mapOnly != 0.95 || redOnly != 0.99 {
		t.Errorf("bases = %v, %v", mapOnly, redOnly)
	}
	if math.Abs(mixed-0.97) > 1e-12 {
		t.Errorf("mixed base = %v, want 0.97", mixed)
	}
	if baseFor("wordcount", 0, 0) != 0.95 {
		t.Error("idle node should report the map base")
	}
	if baseFor("unknown", 1, 0) != defaultBase.mapCPI {
		t.Error("unknown workload should use the default base")
	}
}

func TestBasesDifferAcrossWorkloads(t *testing.T) {
	// Distinct bases are part of what operation context buys.
	seen := map[float64]string{}
	for _, w := range []string{"wordcount", "sort", "grep", "bayes", "tpcds"} {
		b := baseFor(w, 1, 0)
		if prev, dup := seen[b]; dup {
			t.Errorf("workloads %s and %s share base CPI %v", prev, w, b)
		}
		seen[b] = w
	}
}

// runJob runs a Wordcount job on a cluster with the given perturbation on
// every slave, sampling CPI on slave 0, and returns (samples, duration).
func runJob(t *testing.T, seed int64, attach func(n *cluster.Node)) ([]float64, int) {
	t.Helper()
	c := cluster.New(4, seed)
	if attach != nil {
		for _, n := range c.Slaves() {
			attach(n)
		}
	}
	s := NewSampler(stats.NewRNG(seed + 1000))
	spec := workload.NewJob(workload.Wordcount, workload.Params{InputMB: 2048, RNG: stats.NewRNG(seed + 2000)})
	j := c.Submit(spec)
	var samples []float64
	err := c.RunUntilDone(j, 2000, func(tick int) {
		samples = append(samples, s.Sample(c.Slaves()[0], "wordcount"))
	})
	if err != nil {
		t.Fatal(err)
	}
	return samples, j.DurationTicks()
}

type hog struct{ cpu float64 }

func (h *hog) Name() string { return "hog" }
func (h *hog) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	eff.Extra.CPU += h.cpu
}

func TestCPIUnaffectedByBenignDisturbance(t *testing.T) {
	// Fig. 2: a 30% CPU disturbance with headroom moves neither CPI nor
	// execution time materially.
	base, baseDur := runJob(t, 40, nil)
	noisy, noisyDur := runJob(t, 40, func(n *cluster.Node) {
		n.Attach(&hog{cpu: 2.4})
	})
	p95b, err := RunStatistic(base)
	if err != nil {
		t.Fatal(err)
	}
	p95n, err := RunStatistic(noisy)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(p95n-p95b) / p95b; rel > 0.05 {
		t.Errorf("benign disturbance moved p95 CPI by %.1f%%", rel*100)
	}
	if d := math.Abs(float64(noisyDur-baseDur)) / float64(baseDur); d > 0.15 {
		t.Errorf("benign disturbance moved duration by %.1f%%", d*100)
	}
}

func TestCPIRisesUnderSaturation(t *testing.T) {
	// Figs. 4-5: a real CPU hog (beyond capacity) raises CPI and stretches
	// the job.
	base, baseDur := runJob(t, 41, nil)
	hogged, hogDur := runJob(t, 41, func(n *cluster.Node) {
		n.Attach(&hog{cpu: 10})
	})
	p95b, _ := RunStatistic(base)
	p95h, _ := RunStatistic(hogged)
	if p95h < p95b*1.3 {
		t.Errorf("CPU hog p95 CPI %v not clearly above baseline %v", p95h, p95b)
	}
	if hogDur <= baseDur {
		t.Errorf("hogged duration %d not above baseline %d", hogDur, baseDur)
	}
}

func TestCPITracksExecutionTime(t *testing.T) {
	// The Fig. 4 relationship: across runs with varying contention, p95
	// CPI and execution time correlate strongly.
	var cpis, durs []float64
	for i, extra := range []float64{0, 0, 2, 4, 6, 8, 10, 12, 14, 16} {
		samples, d := runJob(t, 42+int64(i), func(n *cluster.Node) {
			if extra > 0 {
				n.Attach(&hog{cpu: extra})
			}
		})
		p95, _ := RunStatistic(samples)
		cpis = append(cpis, p95)
		durs = append(durs, float64(d))
	}
	r, err := stats.Pearson(cpis, durs)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Errorf("corr(p95 CPI, duration) = %v, want > 0.9 (paper: 0.97)", r)
	}
}

func TestSuspendedNodeCPIHigh(t *testing.T) {
	c := cluster.New(2, 43)
	n := c.Slaves()[0]
	n.Attach(suspender{})
	c.Step()
	s := NewSampler(stats.NewRNG(44))
	v := s.Sample(n, "wordcount")
	if v < baseFor("wordcount", 0, 0)*4 {
		t.Errorf("suspended CPI = %v, want several times base", v)
	}
}

type suspender struct{}

func (suspender) Name() string { return "suspend" }
func (suspender) Apply(tick int, n *cluster.Node, eff *cluster.Effects) {
	eff.Suspend = true
}

func TestRunStatisticErrors(t *testing.T) {
	if _, err := RunStatistic(nil); err == nil {
		t.Error("empty samples should error")
	}
}

func TestSamplerDeterminism(t *testing.T) {
	mk := func() float64 {
		c := cluster.New(2, 45)
		c.Step()
		return NewSampler(stats.NewRNG(46)).Sample(c.Slaves()[0], "sort")
	}
	if mk() != mk() {
		t.Error("same seeds must give the same sample")
	}
}

func TestHeterogeneousCPIFactors(t *testing.T) {
	// Different hardware generations retire the same workload at
	// different base CPI; slave 0 stays canonical.
	c := cluster.NewHeterogeneous(4, 47)
	c.Step()
	s := NewSampler(stats.NewRNG(48))
	canonical := s.Sample(c.Slaves()[0], "wordcount")
	other := s.Sample(c.Slaves()[1], "wordcount")
	if canonical == other {
		t.Error("heterogeneous nodes should differ in base CPI")
	}
	// Homogeneous clusters keep factor 1 everywhere.
	ch := cluster.New(2, 49)
	for _, n := range ch.Slaves() {
		if n.CPIFactor != 1 {
			t.Errorf("homogeneous node %d factor = %v", n.ID, n.CPIFactor)
		}
	}
}
