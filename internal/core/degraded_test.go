package core

import (
	"math"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
	"invarnetx/internal/telemetry"
)

// dropMetricTicks masks out a block of ticks for a set of metric rows,
// simulating lost samples on specific counters.
func dropMetricTicks(tr *metrics.Trace, rows []int, from, to int) *metrics.Trace {
	out := metrics.NewTrace(tr.NodeIP, tr.Context)
	for t := 0; t < tr.Len(); t++ {
		sample := make([]float64, metrics.Count)
		valid := make([]bool, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			sample[m] = tr.Rows[m][t]
			valid[m] = true
		}
		for _, m := range rows {
			if t >= from && t < to {
				sample[m] = math.NaN()
				valid[m] = false
			}
		}
		if err := out.AddMasked(sample, valid, tr.CPI[t], true); err != nil {
			panic(err)
		}
	}
	return out
}

func TestDiagnoseCleanWindowFullCoverage(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 700)
	rng := stats.NewRNG(701)
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(1), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	diag, err := s.Diagnose(ctx, synthTrace(rng.Fork(2), 40, 8, fault))
	if err != nil {
		t.Fatal(err)
	}
	if diag.Coverage != 1 {
		t.Fatalf("clean window coverage = %v, want 1", diag.Coverage)
	}
	if diag.Known != nil || diag.Unknown != nil {
		t.Fatalf("clean window reported unknowns: %v", diag.Unknown)
	}
	if diag.RootCause() != "fault-a" {
		t.Fatalf("root cause = %q", diag.RootCause())
	}
	if diag.Confidence != diag.Causes[0].Score {
		t.Fatalf("confidence %v != top score %v", diag.Confidence, diag.Causes[0].Score)
	}
}

func TestDiagnoseMarksLostMetricsUnknown(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 710)
	rng := stats.NewRNG(711)
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(1), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	// Lose metric 7 for nearly the whole window: every invariant touching
	// it becomes unknown; the fault signature on metrics 0/1 must still be
	// recovered from the surviving invariants.
	abnormal := dropMetricTicks(synthTrace(rng.Fork(2), 40, 8, fault), []int{7}, 0, 38)
	diag, err := s.Diagnose(ctx, abnormal)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Known == nil {
		t.Fatal("degraded window did not produce a known mask")
	}
	if diag.Coverage >= 1 || diag.Coverage <= 0 {
		t.Fatalf("coverage = %v, want in (0,1)", diag.Coverage)
	}
	if len(diag.Unknown) == 0 {
		t.Fatal("no unknown invariants reported for a lost metric")
	}
	set, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range set.SortedPairs() {
		touches7 := p.I == 7 || p.J == 7
		if touches7 && diag.Known[k] {
			t.Fatalf("invariant %v touches the lost metric but is known", p)
		}
		if touches7 && diag.Tuple[k] {
			t.Fatalf("invariant %v is unknown but counted as violated", p)
		}
	}
	if diag.RootCause() != "fault-a" {
		t.Fatalf("root cause = %q, want fault-a despite the lost metric", diag.RootCause())
	}
	if diag.Confidence <= 0 || diag.Confidence > diag.Coverage {
		t.Fatalf("confidence = %v, want in (0, coverage=%v]", diag.Confidence, diag.Coverage)
	}
}

// TestDiagnoseUnderTelemetryFaults is the acceptance scenario: 20%% random
// sample loss plus one full node outage injected through internal/telemetry.
// The pipeline must complete diagnosis without panicking, mark unavailable
// invariants unknown, and report a confidence score.
func TestDiagnoseUnderTelemetryFaults(t *testing.T) {
	cfg := DefaultConfig()
	ctxA := Context{Workload: "wordcount", IP: "10.0.0.2"}
	ctxB := Context{Workload: "wordcount", IP: "10.0.0.3"}
	s := New(cfg)
	rng := stats.NewRNG(720)
	for _, ctx := range []Context{ctxA, ctxB} {
		var runs []*metrics.Trace
		var cpis [][]float64
		for i := 0; i < 6; i++ {
			tr := synthTrace(rng.Fork(int64(len(runs))+10*int64(len(cpis))), traceLen, 8, nil)
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatal(err)
		}
		if err := s.TrainInvariants(ctx, runs); err != nil {
			t.Fatal(err)
		}
	}
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctxA, "fault-a", synthTrace(rng.Fork(100), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(ctxB, "fault-a", synthTrace(rng.Fork(101), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}

	tcfg, err := telemetry.ParseFaultSpec("drop=0.2,outage=" + ctxB.IP)
	if err != nil {
		t.Fatal(err)
	}
	col := telemetry.New(tcfg, stats.NewRNG(721))

	// Node A: 20% sample loss. Diagnosis completes with partial coverage
	// and still names the fault.
	cleanA := synthTrace(rng.Fork(102), 60, 8, fault)
	cleanA.NodeIP = ctxA.IP
	degA, _, err := col.Degrade(cleanA)
	if err != nil {
		t.Fatal(err)
	}
	diagA, err := s.Diagnose(ctxA, degA)
	if err != nil {
		t.Fatal(err)
	}
	if diagA.Coverage <= 0 || diagA.Coverage > 1 {
		t.Fatalf("node A coverage = %v", diagA.Coverage)
	}
	if diagA.RootCause() != "fault-a" {
		t.Fatalf("node A root cause = %q under 20%% loss", diagA.RootCause())
	}
	if diagA.Confidence <= 0 {
		t.Fatalf("node A confidence = %v, want > 0", diagA.Confidence)
	}

	// Node B: full agent outage. Every invariant is unknown, nothing is
	// reported violated, confidence is zero — and nothing panics.
	cleanB := synthTrace(rng.Fork(103), 60, 8, fault)
	cleanB.NodeIP = ctxB.IP
	degB, _, err := col.Degrade(cleanB)
	if err != nil {
		t.Fatal(err)
	}
	if degB.ValidFraction() != 0 {
		t.Fatalf("outage node ValidFraction = %v, want 0", degB.ValidFraction())
	}
	diagB, err := s.Diagnose(ctxB, degB)
	if err != nil {
		t.Fatal(err)
	}
	if diagB.Coverage != 0 {
		t.Fatalf("outage coverage = %v, want 0", diagB.Coverage)
	}
	for k := range diagB.Tuple {
		if diagB.Tuple[k] {
			t.Fatal("outage window reported a violated invariant")
		}
		if diagB.Known[k] {
			t.Fatal("outage window reported a known invariant")
		}
	}
	if diagB.Confidence != 0 {
		t.Fatalf("outage confidence = %v, want 0", diagB.Confidence)
	}
	if h := col.Health(ctxB.IP); h.Status != telemetry.Down {
		t.Fatalf("outage node health = %v, want down", h.Status)
	}
}

// TestTrainingKeepsPairKnownness: a metric that is missing from every
// training run (agent never reported it) must not seed invariants. Its
// pairs are unknown in every window; read as a perfectly stable score of 0
// they used to be selected with baseline 0, and the first healthy window
// in which the metric came back then violated them all.
func TestTrainingKeepsPairKnownness(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := New(DefaultConfig())
	rng := stats.NewRNG(730)
	var runs []*metrics.Trace
	for i := 0; i < 6; i++ {
		tr := synthTrace(rng.Fork(int64(i)), traceLen, 8, nil)
		runs = append(runs, dropMetricTicks(tr, []int{0}, 0, traceLen))
	}
	if err := s.TrainInvariants(ctx, runs); err != nil {
		t.Fatal(err)
	}
	set, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() < 21 { // the 7 observed coupled rows alone form C(7,2) pairs
		t.Fatalf("only %d invariants selected from the observed metrics", set.Len())
	}
	for _, pr := range set.SortedPairs() {
		if pr.I == 0 {
			t.Errorf("invariant %v (baseline %v) selected on a metric no training run observed", pr, set.Base[pr])
		}
	}
	// A normal window with metric 0 healthy again has no baseline of 0 to
	// violate.
	rep, err := s.Violations(ctx, synthTrace(rng.Fork(99), traceLen, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Violated {
		if pr.I == 0 {
			t.Errorf("normal window violates %v, an invariant of the never-observed metric", pr)
		}
	}
}
