package experiments

import (
	"reflect"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/workload"
)

// crossOptions sizes the cross-node study for tests: enough runs for a
// stable tally, small enough to stay fast.
func crossOptions() Options {
	opts := tinyOptions()
	opts.CrossTraffic = true
	// A 12 GB sort gives the reduce phase enough waves that the shuffle
	// stage clears the stage-window length; 6 GB jobs end inside it and
	// train no shuffle-stage profiles.
	opts.InputMB = 12 * 1024
	opts.TrainRuns = 6
	opts.RunsPerFault = 10
	// Cross tuples come from 10-sample stage windows; a few extra
	// investigated runs per kind keep the nearest-neighbour match sharp.
	opts.SignatureRuns = 4
	return opts
}

// TestCrossNodeStudy is the acceptance experiment of the spatio-temporal
// layer: the three cross-node faults are detected on the victim, the intra
// arm cannot localise them (its verdicts name the victim or nothing — the
// culprit is another node for xlink/xrepl and no intra signature describes a
// cross kind), and the cross arm pins (kind, culprit node, stage).
func TestCrossNodeStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-node study is slow")
	}
	r := NewRunner(crossOptions())
	study, err := r.RunCrossNodeStudy(workload.Sort)
	if err != nil {
		t.Fatal(err)
	}
	if study.TrainedProfiles == 0 || study.CrossEdges == 0 {
		t.Fatalf("no cross profiles trained: %+v", study)
	}
	for _, row := range study.Rows {
		t.Logf("%s: runs=%d alerts=%d crossCorrect=%d crossWrongNode=%d cross=%v intra=%v",
			row.Fault, row.Runs, row.Alerts, row.CrossCorrect, row.CrossWrongNode, row.CrossVerdicts, row.IntraVerdicts)
		if row.Alerts == 0 {
			t.Errorf("%s: victim CPI monitor never fired", row.Fault)
			continue
		}
		// The intra arm must never name the true (kind, culprit): for
		// xlink/xrepl every victim-scoped verdict carries the wrong node,
		// and no intra signature carries a cross kind.
		if n := row.IntraVerdicts[string(row.Fault)+"@"+row.CulpritIP]; n > 0 {
			t.Errorf("%s: intra arm localised a cross fault %d times", row.Fault, n)
		}
		// The cross arm localises the majority of alerted runs.
		if 2*row.CrossCorrect < row.Alerts {
			t.Errorf("%s: cross arm localised %d of %d alerts", row.Fault, row.CrossCorrect, row.Alerts)
		}
	}
}

// stagedTrace is one node's run over a fixed stage timeline: map [0,8) is
// shorter than a window, shuffle [8,38) is long, reduce [38,44) is short and
// shuffle [44,56) occurs a second time. Metric m at tick t reads
// base + 100*m + t, so a window's rows name the node and ticks they came
// from.
func stagedTrace(t *testing.T, ip string, base float64) *metrics.Trace {
	t.Helper()
	tr := metrics.NewTrace(ip, "sort")
	stages := []struct {
		stage string
		end   int
	}{{"map", 8}, {"shuffle", 38}, {"reduce", 44}, {"shuffle", 56}}
	tick := 0
	for _, st := range stages {
		for ; tick < st.end; tick++ {
			tr.MarkStage(st.stage)
			sample := make([]float64, metrics.Count)
			for m := range sample {
				sample[m] = base + float64(100*m+tick)
			}
			if err := tr.Add(sample, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// checkJointWindow asserts win is the 2×11 joint window of a (base 0) and b
// (base 10000) over ticks [lo, lo+stageWindow), all inside stage.
func checkJointWindow(t *testing.T, what string, win *metrics.Trace, lo int, stage string) {
	t.Helper()
	k := len(crossMetricIdx)
	if len(win.Rows) != 2*k || win.Len() != stageWindow {
		t.Fatalf("%s: window is %d rows x %d ticks, want %d x %d", what, len(win.Rows), win.Len(), 2*k, stageWindow)
	}
	for i, row := range win.Rows {
		base := 0.0
		if i >= k {
			base = 10000
		}
		for j, v := range row {
			if want := base + float64(100*crossMetricIdx[i%k]+lo+j); v != want {
				t.Fatalf("%s: row %d tick %d reads %v, want %v (window from tick %d)", what, i, j, v, want, lo)
			}
		}
	}
	if got := win.StageWindows(); len(got) != 1 || got[0].Stage != stage {
		t.Errorf("%s: window stages %+v, want %s throughout", what, got, stage)
	}
}

// TestCrossWindows: training cuts one window from the head of every stage
// occurrence long enough to hold one, and none from a shorter occurrence.
func TestCrossWindows(t *testing.T) {
	a, b := stagedTrace(t, "10.0.0.2", 0), stagedTrace(t, "10.0.0.3", 10000)
	for _, tc := range []struct {
		stage string
		los   []int
	}{
		{"map", nil},              // 8 samples: shorter than the window
		{"reduce", nil},           // 6 samples
		{"shuffle", []int{8, 44}}, // both occurrences, from their heads
		{"setup", nil},            // a stage the run never entered
	} {
		ws, err := crossWindows(a, b, tc.stage)
		if err != nil {
			t.Fatalf("%s: %v", tc.stage, err)
		}
		if len(ws) != len(tc.los) {
			t.Fatalf("%s: %d windows, want %d", tc.stage, len(ws), len(tc.los))
		}
		for i, w := range ws {
			checkJointWindow(t, tc.stage, w, tc.los[i], tc.stage)
		}
	}
}

// TestCrossWindowAt: the diagnosis window ends at the alert tick when the
// stage has run a full window by then, starts at the occurrence's head when
// it has not, and is nil when the tick lies in another stage or in an
// occurrence too short to window.
func TestCrossWindowAt(t *testing.T) {
	a, b := stagedTrace(t, "10.0.0.2", 0), stagedTrace(t, "10.0.0.3", 10000)
	for _, tc := range []struct {
		name  string
		stage string
		tick  int
		lo    int // -1: no window
	}{
		{"short occurrence", "map", 3, -1},
		{"short occurrence, last tick", "reduce", 43, -1},
		{"before a full window", "shuffle", 9, 8},
		{"at the occurrence head", "shuffle", 8, 8},
		{"inside", "shuffle", 20, 11},
		{"at the occurrence end", "shuffle", 37, 28},
		{"second occurrence", "shuffle", 47, 44},
		{"second occurrence end", "shuffle", 55, 46},
		{"tick in another stage", "shuffle", 40, -1},
		{"tick before any stage of that name", "reduce", 20, -1},
	} {
		win, err := crossWindowAt(a, b, tc.stage, tc.tick)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.lo < 0 {
			if win != nil {
				t.Errorf("%s: got a %d-tick window, want none", tc.name, win.Len())
			}
			continue
		}
		if win == nil {
			t.Fatalf("%s: no window, want one from tick %d", tc.name, tc.lo)
		}
		checkJointWindow(t, tc.name, win, tc.lo, tc.stage)
	}
}

// TestJoinTracesStageAlignment checks the joint layout: row i is metric
// crossMetricIdx[i] of side a and row K+i the same metric of side b, a mask
// on either side survives into the joint trace (the unmasked side reads
// all-true, an unmasked pair stays unmasked), the stage windows are side
// a's, and sides of different lengths do not join.
func TestJoinTracesStageAlignment(t *testing.T) {
	a, b := stagedTrace(t, "10.0.0.2", 0), stagedTrace(t, "10.0.0.3", 10000)
	j, err := joinTraces(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.NodeIP != "10.0.0.2~10.0.0.3" || j.Valid != nil {
		t.Fatalf("joint trace %q, masks %v: want 10.0.0.2~10.0.0.3, unmasked", j.NodeIP, j.Valid != nil)
	}
	aw, jw := a.StageWindows(), j.StageWindows()
	if !reflect.DeepEqual(aw, jw) {
		t.Fatalf("joint windows %+v, side-a windows %+v", jw, aw)
	}

	// Mask every third sample of side b's metrics.
	b.Valid, b.CPIValid = make([][]bool, len(b.Rows)), make([]bool, b.Ticks)
	for tick := range b.CPIValid {
		b.CPIValid[tick] = true
	}
	for m := range b.Valid {
		b.Valid[m] = make([]bool, b.Ticks)
		for tick := range b.Valid[m] {
			b.Valid[m][tick] = (m+tick)%3 != 0
		}
	}
	if j, err = joinTraces(a, b); err != nil {
		t.Fatal(err)
	}
	k := len(crossMetricIdx)
	if len(j.Valid) != 2*k || len(j.CPIValid) != j.Ticks {
		t.Fatalf("joint masks %d rows, CPI mask %d ticks; want %d rows, %d ticks", len(j.Valid), len(j.CPIValid), 2*k, j.Ticks)
	}
	for i, m := range crossMetricIdx {
		for tick := 0; tick < j.Ticks; tick++ {
			if j.Rows[i][tick] != a.Rows[m][tick] || !j.Valid[i][tick] || !j.CPIValid[tick] {
				t.Fatalf("side-a row %d tick %d: %v valid %v, want %v valid", i, tick, j.Rows[i][tick], j.Valid[i][tick], a.Rows[m][tick])
			}
			if j.Rows[k+i][tick] != b.Rows[m][tick] || j.Valid[k+i][tick] != b.Valid[m][tick] {
				t.Fatalf("side-b row %d tick %d diverged", i, tick)
			}
		}
	}

	short, err := b.Slice(0, b.Ticks-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := joinTraces(a, short); err == nil {
		t.Error("joined traces of different lengths")
	}
}

// TestMergeCrossDiagnoses: one alert's per-pair diagnoses reduce to the
// most confident named cause, split into kind and culprit node, and scoped
// to that pair profile's stage.
func TestMergeCrossDiagnoses(t *testing.T) {
	diag := func(nodeA, nodeB, stage, cause string, conf float64) crossDiagnosis {
		key := newCrossKey("sort", nodeA, nodeB, stage)
		d := &core.Diagnosis{Context: key.context(), Confidence: conf}
		if cause != "" {
			d.Causes = []signature.Match{{Entry: signature.Entry{Problem: cause}, Score: conf}}
		}
		return crossDiagnosis{key: key, diag: d}
	}
	for _, tc := range []struct {
		name  string
		diags []crossDiagnosis
		want  *spatialVerdict
	}{
		{"no diagnoses", nil, nil},
		{"no cause named", []crossDiagnosis{diag("10.0.0.2", "10.0.0.3", "shuffle", "", 0)}, nil},
		{"single", []crossDiagnosis{diag("10.0.0.2", "10.0.0.3", "shuffle", "xlink@10.0.0.3", 0.8)},
			&spatialVerdict{problem: "xlink", node: "10.0.0.3", stage: "shuffle"}},
		{"highest confidence wins over a majority", []crossDiagnosis{
			diag("10.0.0.2", "10.0.0.3", "shuffle", "xskew@10.0.0.2", 0.4),
			diag("10.0.0.2", "10.0.0.4", "shuffle", "xskew@10.0.0.2", 0.4),
			diag("10.0.0.3", "10.0.0.5", "map", "xrepl@10.0.0.3", 0.9),
		}, &spatialVerdict{problem: "xrepl", node: "10.0.0.3", stage: "map"}},
		{"tie breaks by key", []crossDiagnosis{
			diag("10.0.0.4", "10.0.0.3", "shuffle", "xskew@10.0.0.4", 0.7),
			diag("10.0.0.2", "10.0.0.5", "shuffle", "xlink@10.0.0.5", 0.7),
		}, &spatialVerdict{problem: "xlink", node: "10.0.0.5", stage: "shuffle"}},
		{"label without a culprit", []crossDiagnosis{diag("10.0.0.2", "10.0.0.3", "reduce", "xlink", 0.5)},
			&spatialVerdict{problem: "xlink", stage: "reduce"}},
	} {
		if got := mergeCrossDiagnoses(tc.diags); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: merged %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
