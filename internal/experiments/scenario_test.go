package experiments

import (
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/signature"
	"invarnetx/internal/telemetry"
	"invarnetx/internal/workload"
)

// outcome builds a hand-made Outcome: faults injected, causes ranked.
func outcome(status Status, injected []faults.Kind, causes ...string) Outcome {
	o := Outcome{Scenario: Scenario{Faults: injected}, Status: status, AlertTick: -1}
	if status != Undetected {
		o.Diagnosis = &core.Diagnosis{Coverage: 0.5, Confidence: 0.25}
		for _, c := range causes {
			o.Diagnosis.Causes = append(o.Diagnosis.Causes, signature.Match{Entry: signature.Entry{Problem: c}})
		}
	}
	return o
}

func TestTally(t *testing.T) {
	a, b := []faults.Kind{"a"}, []faults.Kind{"b"}
	ab := []faults.Kind{"a", "b"}
	for _, tc := range []struct {
		name                string
		outs                []Outcome
		label               string
		counts              PRCounts
		precision, recall   float64
		accuracy, hit2      float64
		alertRate, coverage float64
	}{
		{name: "empty", label: "a"},
		{
			// Nothing was ever diagnosed as a: precision is undefined and
			// reads 0, as it always has.
			name:  "undefined precision",
			outs:  []Outcome{outcome(Undetected, a), outcome(HintsOnly, a)},
			label: "a", counts: PRCounts{FN: 2},
			alertRate: 0.5, coverage: 0.5,
		},
		{
			name: "confusion",
			outs: []Outcome{
				outcome(Diagnosed, a, "a", "b"),
				outcome(Diagnosed, a, "b", "a"),
				outcome(Diagnosed, b, "a"),
				outcome(Undetected, b),
			},
			label: "a", counts: PRCounts{TP: 1, FP: 1, FN: 1},
			precision: 0.5, recall: 0.5, accuracy: 0.25,
			alertRate: 0.75, coverage: 0.5,
		},
		{
			// Two simultaneous faults: hit@1 wants the top cause injected,
			// hit@2 the top two — in either order, but both.
			name: "hit at k",
			outs: []Outcome{
				outcome(Diagnosed, ab, "b", "a", "c"),
				outcome(Diagnosed, ab, "a", "c", "b"),
				outcome(Diagnosed, ab, "c", "a", "b"),
				outcome(Diagnosed, ab, "a"),
			},
			label: "a+b", counts: PRCounts{FN: 4},
			accuracy: 0.75, hit2: 0.25,
			alertRate: 1, coverage: 0.5,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tally := Tally(tc.outs)
			if got := tally.Counts(tc.label); got != tc.counts {
				t.Errorf("Counts(%s) = %+v, want %+v", tc.label, got, tc.counts)
			}
			for _, m := range []struct {
				name      string
				got, want float64
			}{
				{"Precision", tally.Counts(tc.label).Precision(), tc.precision},
				{"Recall", tally.Counts(tc.label).Recall(), tc.recall},
				{"Accuracy", tally.Accuracy(), tc.accuracy},
				{"HitAt(1)", tally.HitAt(1), tc.accuracy},
				{"HitAt(2)", tally.HitAt(2), tc.hit2},
				{"HitAt(0)", tally.HitAt(0), 0},
				{"HitAt(9)", tally.HitAt(9), 0},
				{"AlertRate", tally.AlertRate(), tc.alertRate},
				{"MeanCoverage", tally.MeanCoverage(), tc.coverage},
			} {
				if m.got != m.want {
					t.Errorf("%s = %v, want %v", m.name, m.got, m.want)
				}
			}
		})
	}

	tally := Tally([]Outcome{outcome(Diagnosed, a, "b"), outcome(Diagnosed, a, "b"), outcome(Diagnosed, b, "b")})
	if got := tally.Confused("a", "b"); got != 2 {
		t.Errorf("Confused(a, b) = %d, want 2", got)
	}
	if got := tally.Confused("b", "a"); got != 0 {
		t.Errorf("Confused(b, a) = %d, want 0", got)
	}
	if tally.Runs("a") != 2 || tally.Runs("nosuch") != 0 || tally.Alerts("a") != 2 {
		t.Errorf("Runs(a)=%d Runs(nosuch)=%d Alerts(a)=%d", tally.Runs("a"), tally.Runs("nosuch"), tally.Alerts("a"))
	}
}

// runAllRows generates every scenario row `cmd/experiments -run all` observes
// or labels, with its parameters, plus the degradation study's.
func runAllRows(r *Runner) []Scenario {
	var rows []Scenario
	add := func(sets ...[]Scenario) {
		for _, s := range sets {
			rows = append(rows, s...)
		}
	}
	for _, w := range []workload.Type{workload.TPCDS, workload.Wordcount} { // fig7, fig8
		add(r.heldOutRows("diagnosis/invarnet-x", w, FaultKindsFor(w), r.opts.Slaves))
	}
	for _, v := range variants() { // fig9, fig10
		add(r.variant(v).heldOutRows("diagnosis/"+string(v), workload.Wordcount, FaultKindsFor(workload.Wordcount), r.opts.Slaves))
	}
	add(r.multiFaultRows(workload.Wordcount, 6))
	from := 0
	for _, to := range growthSteps(len(FaultKindsFor(workload.Wordcount))) {
		add(r.growthRows(workload.Wordcount, from, to, 3))
		from = to
	}
	add(r.contrastRows(workload.Wordcount, 4))
	add(r.crossRows(workload.Sort))
	add(r.heldOutRows("confusion", workload.Wordcount, []faults.Kind{faults.NetDrop, faults.NetDelay}, 1))
	add(r.degradationRows(workload.Wordcount, faults.CPUHog, []float64{0, 0.5, 0.9}, 3))
	return rows
}

func TestScenarioID(t *testing.T) {
	rows := runAllRows(NewRunner(DefaultOptions()))
	if len(rows) < 2000 {
		t.Fatalf("only %d rows generated for -run all", len(rows))
	}
	seen := make(map[string]int, len(rows))
	for i, sc := range rows {
		id := sc.ID()
		if j, dup := seen[id]; dup {
			t.Fatalf("rows %d and %d share the id %q", j, i, id)
		}
		seen[id] = i
	}
	// Stable: a second generation, from a fresh runner, names every row the
	// same way.
	for i, sc := range runAllRows(NewRunner(DefaultOptions())) {
		if sc.ID() != rows[i].ID() {
			t.Fatalf("row %d renamed between generations: %q then %q", i, rows[i].ID(), sc.ID())
		}
	}
	// And pinned: ids key stored results, so a format change must be
	// deliberate.
	for _, tc := range []struct {
		sc   Scenario
		want string
	}{
		{Scenario{Study: "s", Workload: workload.Sort}, "s/sort/normal/0/oracle"},
		{Scenario{Study: "s", Workload: workload.Wordcount, Faults: []faults.Kind{faults.CPUHog}, Index: 7, Origin: Alert},
			"s/wordcount/cpu-hog/7/alert"},
		{Scenario{Study: "s", Workload: workload.Wordcount, Faults: []faults.Kind{faults.CPUHog, faults.MemHog}, Index: 1},
			"s/wordcount/cpu-hog+mem-hog/1/oracle"},
		{Scenario{Study: "s", Workload: workload.Sort, Faults: []faults.Kind{faults.XLink}, Cross: true, Index: 2, Origin: Alert},
			"s/sort/cross:xlink/2/alert"},
		{Scenario{Study: "s", Workload: workload.Grep, Faults: []faults.Kind{faults.DiskHog},
			Telemetry: &telemetry.FaultModel{DropRate: 0.5}, TelemetrySalt: 1002},
			"s/grep/disk-hog/0/oracle/telemetry={DropRate:0.5 CorruptRate:0 SpikeFraction:0 Outages:map[]}#1002"},
	} {
		if got := tc.sc.ID(); got != tc.want {
			t.Errorf("ID = %q, want %q", got, tc.want)
		}
	}
}

// TestLabelCoversRotatedTargets: with rotating targets a test run can land on
// any slave, and signatures are scoped per operation context — so every
// study's label rows must investigate every kind on every node. Before Label
// was the one place a signature base is built, only the Figs. 7-10 study did;
// the others labelled slave 0 alone and silently scored the remaining nodes'
// runs as misses.
func TestLabelCoversRotatedTargets(t *testing.T) {
	opts := tinyOptions()
	opts.RotateTargets = true
	r := NewRunner(opts)
	const w = workload.Wordcount
	first := func(label, _ []Scenario) []Scenario { return label }
	growth := r.LabelRows("growth", w, FaultKindsFor(w)...) // the union of growthRows' steps
	crossLabel, _, _ := r.crossRows(w)
	for name, label := range map[string][]Scenario{
		"diagnosis":   first(r.heldOutRows("diagnosis/invarnet-x", w, FaultKindsFor(w), r.opts.Slaves)),
		"confusion":   first(r.heldOutRows("confusion", w, []faults.Kind{faults.NetDrop, faults.NetDelay}, 1)),
		"degradation": first(r.degradationRows(w, faults.CPUHog, []float64{0}, 1)),
		"multifault":  first(r.multiFaultRows(w, 1)),
		"growth":      growth,
		"crossnode":   crossLabel,
	} {
		t.Run(name, func(t *testing.T) {
			sys, runs, err := r.TrainSystem(w)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Label(sys, label); err != nil {
				t.Fatal(err)
			}
			kinds := map[string]bool{}
			for _, sc := range label {
				kinds[sc.Truth()] = true
			}
			for ip := range runs[0].Traces {
				perKind := map[string]int{}
				for _, e := range sys.Profile(contextFor(w, ip)).SignatureSnapshot().Entries() {
					perKind[e.Problem]++
				}
				for kind := range kinds {
					if perKind[kind] < opts.SignatureRuns {
						t.Errorf("node %s holds %d %s signatures, want at least %d", ip, perKind[kind], kind, opts.SignatureRuns)
					}
				}
			}
		})
	}

	// The symptom: of four clean-telemetry degradation runs on rotating
	// targets only the one landing on slave 0 used to meet any signature at
	// all, so at most one could be diagnosed.
	study, err := r.RunDegradationStudy(w, faults.CPUHog, []float64{0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p := study.Points[0]; p.Correct < 2 {
		t.Errorf("rotating-target degradation study diagnosed %d of %d clean runs", p.Correct, p.Runs)
	}
}

// TestObserveStatuses pins the explicit non-answers: a normal run leaves the
// monitor silent (undetected, no diagnosis), an unlabelled fault is detected
// but only hinted at, and a labelled one is diagnosed.
func TestObserveStatuses(t *testing.T) {
	r := NewRunner(tinyOptions())
	const w = workload.Wordcount
	sys, _, err := r.TrainSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := r.Observe(sys, Scenario{Study: "t", Workload: w, Index: 50, Origin: Alert})
	if err != nil {
		t.Fatal(err)
	}
	if normal.Status != Undetected || normal.AlertTick != -1 || normal.Diagnosis != nil || normal.Context.IP != firstSlaveIP {
		t.Errorf("normal run: %+v", normal)
	}
	hog := Scenario{Study: "t", Workload: w, Faults: []faults.Kind{faults.CPUHog}, Origin: Alert}
	hinted, err := r.Observe(sys, hog)
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Status != HintsOnly || hinted.AlertTick < r.opts.FaultStart || hinted.Predicted() != "" {
		t.Errorf("unlabelled fault: status %s, alert %d, predicted %q", hinted.Status, hinted.AlertTick, hinted.Predicted())
	}
	if err := r.Label(sys, r.LabelRows("t", w, faults.CPUHog)); err != nil {
		t.Fatal(err)
	}
	diagnosed, err := r.Observe(sys, hog)
	if err != nil {
		t.Fatal(err)
	}
	if diagnosed.Status != Diagnosed || diagnosed.Predicted() != string(faults.CPUHog) || diagnosed.AlertTick != hinted.AlertTick {
		t.Errorf("labelled fault: status %s, alert %d, predicted %q", diagnosed.Status, diagnosed.AlertTick, diagnosed.Predicted())
	}

	// Label refuses rows it cannot store under one problem name.
	for _, bad := range []Scenario{
		{Study: "t", Workload: w},
		{Study: "t", Workload: w, Faults: []faults.Kind{faults.CPUHog, faults.MemHog}},
		{Study: "t", Workload: w, Faults: []faults.Kind{faults.XLink}, Cross: true},
	} {
		if err := r.Label(sys, []Scenario{bad}); err == nil {
			t.Errorf("Label accepted %s", bad.ID())
		}
	}
	if _, err := r.Observe(sys, Scenario{Study: "t", Workload: w, Faults: []faults.Kind{"a", "b", "c"}}); err == nil {
		t.Error("Observe accepted three simultaneous faults")
	}
}
