package experiments

import (
	"bytes"
	"strings"
	"testing"

	"invarnetx/internal/workload"
)

func TestMultiFaultTopK(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := NewRunner(tinyOptions())
	res, err := r.RunMultiFault(workload.Wordcount, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 3 {
		t.Fatalf("pairs = %d", len(res.Pairs))
	}
	for _, p := range res.Pairs {
		if p.Runs != 3 {
			t.Errorf("%s+%s runs = %d", p.A, p.B, p.Runs)
		}
		if p.OneInTop1 < p.BothInTop2 {
			t.Errorf("%s+%s: both@2 (%d) cannot exceed one@1 (%d)", p.A, p.B, p.BothInTop2, p.OneInTop1)
		}
	}
	// The merged violation tuple of two simultaneous faults matches
	// single-fault signatures imperfectly (this is exactly why the paper
	// defers multi-fault diagnosis); at this tiny scale just require that
	// a culprit surfaces at all.
	if res.HitAt1 <= 0 {
		t.Errorf("hit@1 = %.2f, no culprit ever surfaced", res.HitAt1)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "hit@1") {
		t.Error("Print output incomplete")
	}
}

func TestSignatureGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := NewRunner(tinyOptions())
	res, err := r.RunSignatureGrowth(workload.Wordcount, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Coverage grows monotonically.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].KnownFaults <= res.Points[i-1].KnownFaults {
			t.Errorf("coverage not growing: %+v", res.Points)
		}
	}
	last := res.Points[len(res.Points)-1]
	if last.KnownFaults != 14 {
		t.Errorf("final coverage = %d", last.KnownFaults)
	}
	if last.KnownAccuracy < 0.3 {
		t.Errorf("full-coverage accuracy = %.2f", last.KnownAccuracy)
	}
	// While faults are still unknown, detection must keep hinting them.
	if res.Points[0].UnknownHinted < 0.8 {
		t.Errorf("unknown faults hinted = %.2f, want near 1 (detection is fault-agnostic)", res.Points[0].UnknownHinted)
	}
}

func TestContrastTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	r := NewRunner(tinyOptions())
	res, err := r.RunContrast(workload.Wordcount, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Invariants < 10 {
		t.Errorf("invariants = %d", res.Invariants)
	}
	// Sorted ascending by margin.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Margin() < res.Rows[i-1].Margin() {
			t.Error("rows not sorted by margin")
			break
		}
	}
	// A healthy calibration has a solid block of positive-margin faults
	// even at this tiny test scale (2 tuples per fault is a noisy
	// estimate; the full-scale contrast is much cleaner).
	pos := 0
	for _, row := range res.Rows {
		if row.Margin() > 0 {
			pos++
		}
	}
	if pos < len(res.Rows)/3 {
		t.Errorf("only %d of %d faults have positive contrast margins", pos, len(res.Rows))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "margin") {
		t.Error("Print output incomplete")
	}
}

func TestComparisonAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("three full studies")
	}
	cmp, err := tinyComparison()
	if err != nil {
		t.Fatal(err)
	}
	inv := cmp.Studies[VariantInvarNetX]
	arxSt := cmp.Studies[VariantARX]
	nc := cmp.Studies[VariantNoContext]
	if inv == nil || arxSt == nil || nc == nil {
		t.Fatal("missing variant study")
	}
	// The two headline shapes of Figs. 9/10: MIC+context wins on precision
	// against ARX and against the context-free variant. Small-sample runs
	// are noisy, so assert the direction with slack rather than the size.
	if inv.AveragePrecision() < arxSt.AveragePrecision()-0.1 {
		t.Errorf("invarnet-x precision %.2f below arx %.2f", inv.AveragePrecision(), arxSt.AveragePrecision())
	}
	if inv.AveragePrecision() < nc.AveragePrecision()-0.1 {
		t.Errorf("invarnet-x precision %.2f below no-context %.2f", inv.AveragePrecision(), nc.AveragePrecision())
	}
	var buf bytes.Buffer
	cmp.PrintPrecision(&buf)
	cmp.PrintRecall(&buf)
	out := buf.String()
	if !strings.Contains(out, "Fig 9") || !strings.Contains(out, "Fig 10") {
		t.Error("comparison print incomplete")
	}
}

func TestRotateTargets(t *testing.T) {
	opts := tinyOptions()
	opts.RotateTargets = true
	r := NewRunner(opts)
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		res, err := r.Run(workload.Wordcount, "cpu-hog", i)
		if err != nil {
			t.Fatal(err)
		}
		seen[res.TargetIP] = true
	}
	if len(seen) != 4 {
		t.Errorf("rotation hit %d distinct nodes, want 4: %v", len(seen), seen)
	}
}
