package invarnetx

import "testing"

func TestPublicAPISurface(t *testing.T) {
	if len(MetricNames()) != 26 {
		t.Errorf("metrics = %d, want 26", len(MetricNames()))
	}
	if len(FaultKinds()) != 15 {
		t.Errorf("faults = %d, want 15", len(FaultKinds()))
	}
	cfg := DefaultConfig()
	if cfg.Epsilon != 0.2 || cfg.Tau != 0.2 {
		t.Errorf("paper thresholds: eps=%v tau=%v", cfg.Epsilon, cfg.Tau)
	}
	sys := New(cfg)
	if sys == nil || sys.SignatureCount() != 0 {
		t.Error("fresh system should be empty")
	}
}

func TestPublicMIC(t *testing.T) {
	rng := NewRNG(1)
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = xs[i] * xs[i]
	}
	if s := MIC(xs, ys); s < 0.9 {
		t.Errorf("MIC(parabola) = %v", s)
	}
}

func TestPublicClusterWorkflow(t *testing.T) {
	c := NewCluster(4, 7)
	if len(c.Slaves()) != 4 {
		t.Fatalf("slaves = %d", len(c.Slaves()))
	}
	spec := NewBatchJob(Grep, WorkloadParams{InputMB: 2048, RNG: NewRNG(8)})
	j := c.Submit(spec)
	smp := NewCPISampler(NewRNG(9))
	var cpis []float64
	err := c.RunUntilDone(j, 2000, func(tick int) {
		cpis = append(cpis, smp.Sample(c.Slaves()[0], "grep"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cpis) < 5 {
		t.Errorf("sampled %d ticks", len(cpis))
	}
	p95, err := CPIRunStatistic(cpis)
	if err != nil {
		t.Fatal(err)
	}
	if p95 <= 0 {
		t.Errorf("p95 CPI = %v", p95)
	}
}

func TestPublicEndToEndDiagnosis(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline")
	}
	opts := DefaultExperimentOptions()
	opts.TrainRuns = 4
	opts.InputMB = 6 * 1024
	runner := NewExperimentRunner(opts)
	sys, _, err := runner.TrainSystem(Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	// Record and rediagnose a memory hog.
	for i := 0; i < 2; i++ {
		res, err := runner.Run(Wordcount, "mem-hog", 100000+i)
		if err != nil {
			t.Fatal(err)
		}
		win, err := res.TargetTrace().Slice(res.Window.Start, minInt(res.Window.End, res.TargetTrace().Len()))
		if err != nil {
			t.Fatal(err)
		}
		ctx := Context{Workload: "wordcount", IP: res.TargetIP}
		if err := sys.BuildSignature(ctx, "mem-hog", win); err != nil {
			t.Fatal(err)
		}
	}
	res, err := runner.Run(Wordcount, "mem-hog", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.TargetTrace()
	ctx := Context{Workload: "wordcount", IP: res.TargetIP}
	det, err := sys.Detector(ctx)
	if err != nil {
		t.Fatal(err)
	}
	mon := det.NewMonitor(tr.CPI[:6])
	alert := -1
	for i := 6; i < tr.Len(); i++ {
		mon.Offer(tr.CPI[i])
		if mon.Alert() {
			alert = i
			break
		}
	}
	if alert < 0 {
		t.Fatal("mem-hog not detected")
	}
	win, err := tr.Slice(alert-2, minInt(alert-2+30, tr.Len()))
	if err != nil {
		t.Fatal(err)
	}
	diag, err := sys.Diagnose(ctx, win)
	if err != nil {
		t.Fatal(err)
	}
	if diag.RootCause() != "mem-hog" {
		t.Errorf("diagnosed %q, want mem-hog (causes: %v)", diag.RootCause(), diag.Causes)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
