package core

import (
	"math"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// addMasked appends one sample to tr with its metric validity mask and a
// genuine CPI reading. Every caller starts from an empty trace, so the masks
// stay parallel to the rows from the first tick.
func addMasked(tr *metrics.Trace, sample []float64, valid []bool, cpi float64) {
	if tr.Valid == nil {
		tr.Valid = make([][]bool, len(tr.Rows))
	}
	for m, v := range sample {
		tr.Rows[m] = append(tr.Rows[m], v)
		tr.Valid[m] = append(tr.Valid[m], valid[m])
	}
	tr.CPI = append(tr.CPI, cpi)
	tr.CPIValid = append(tr.CPIValid, true)
	tr.Ticks++
}

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
		addMasked(out, sample, valid, tr.CPI[t])
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
