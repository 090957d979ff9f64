package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"invarnetx/internal/cluster"
	"invarnetx/internal/core"
	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/workload"
)

// crossOptions sizes the cross-node study for tests: enough runs for a
// stable tally, small enough to stay fast.
func crossOptions() Options {
	opts := tinyOptions()
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

// TestRunTimelinePartitionsRun is the stage timeline's property test: on
// simulated batch jobs of varied size and seed, finished or cut short, the
// spans tile the observed samples in order, no two neighbours share a stage,
// every sample taken while the job ran lies in the span of the stage
// Job.StageAt reports for its tick, and the sample taken once the job is done
// joins the last span. A Runner's batch run carries a timeline tiling its
// traces; an interactive run carries none.
func TestRunTimelinePartitionsRun(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		seed := int64(trial + 1)
		c := cluster.New(4, seed)
		c.CrossTraffic = r.Intn(2) == 0
		w := []workload.Type{workload.Sort, workload.Wordcount}[r.Intn(2)]
		spec := workload.NewJob(w, workload.Params{InputMB: float64(4096 + r.Intn(12*1024)), RNG: stats.NewRNG(seed)})
		stretch := float64(1 + r.Intn(8)) // long reduces outlast the shuffle round
		for i := range spec.ReduceTasks {
			spec.ReduceTasks[i].NominalSeconds *= stretch
		}
		j := c.Submit(spec)
		maxTicks := 400
		if r.Intn(3) == 0 {
			maxTicks = 5 + r.Intn(40) // cut short: a wedged run's timeline
		}
		var tl timeline
		var ticks []int
		_ = c.RunUntilDone(j, maxTicks, func(tick int) {
			tl = tl.observe(j, tick, len(ticks))
			ticks = append(ticks, tick)
		})

		at := 0
		for k, sp := range tl {
			if sp.lo != at || sp.hi <= sp.lo {
				t.Fatalf("trial %d: span %d %+v does not continue from sample %d", trial, k, sp, at)
			}
			if k > 0 && tl[k-1].stage == sp.stage {
				t.Fatalf("trial %d: spans %d and %d are both %s", trial, k-1, k, sp.stage)
			}
			at = sp.hi
		}
		if at != len(ticks) {
			t.Fatalf("trial %d: spans %+v end at sample %d, want %d", trial, tl, at, len(ticks))
		}
		for i, tick := range ticks {
			want := j.StageAt(tick)
			if j.Done() && tick >= j.DoneTick {
				want = tl[len(tl)-1].stage
			}
			if got := tl.at(i); got != want {
				t.Fatalf("trial %d: sample %d (tick %d) lies in a %q span, want %q", trial, i, tick, got, want)
			}
		}
	}

	rn := NewRunner(tinyOptions())
	res, err := rn.Run(workload.Sort, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl, n := res.stages, res.Traces[firstSlaveIP].Len(); len(tl) == 0 || tl[0].lo != 0 || tl[len(tl)-1].hi != n {
		t.Errorf("batch run timeline %+v does not tile its %d samples", tl, n)
	}
	if res, err = rn.Run(workload.TPCDS, "", 0); err != nil {
		t.Fatal(err)
	}
	if res.stages != nil {
		t.Errorf("interactive run carries a stage timeline %+v", res.stages)
	}
}

// TestTimelineAddDedupes pins the span rule: a repeated stage extends the
// current span, a sample with no stage opens none before the first span and
// extends the last one after it, and a stage that recurs opens a new span.
func TestTimelineAddDedupes(t *testing.T) {
	var tl timeline
	for i, stage := range []string{"", "map", "map", "shuffle", "", "shuffle", "reduce", "shuffle"} {
		tl = tl.add(stage, i)
	}
	want := timeline{{"map", 1, 3}, {"shuffle", 3, 6}, {"reduce", 6, 7}, {"shuffle", 7, 8}}
	if len(tl) != len(want) {
		t.Fatalf("timeline = %+v, want %+v", tl, want)
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, tl[i], want[i])
		}
	}
}

// stagedRun is the fixed stage timeline of stagedTrace's runs: map [0,8) is
// shorter than a window, shuffle [8,38) is long, reduce [38,44) is short and
// shuffle [44,56) occurs a second time.
var stagedRun = timeline{{"map", 0, 8}, {"shuffle", 8, 38}, {"reduce", 38, 44}, {"shuffle", 44, 56}}

// stagedTrace is one node's run over stagedRun. Metric m at tick t reads
// base + 100*m + t, so a window's rows name the node and ticks they came
// from.
func stagedTrace(t *testing.T, ip string, base float64) *metrics.Trace {
	t.Helper()
	tr := metrics.NewTrace(ip, "sort")
	for tick := 0; tick < stagedRun[len(stagedRun)-1].hi; tick++ {
		sample := make([]float64, metrics.Count)
		for m := range sample {
			sample[m] = base + float64(100*m+tick)
		}
		if err := tr.Add(sample, 1); err != nil {
			t.Fatal(err)
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
	inside := false
	for _, sp := range stagedRun {
		inside = inside || sp.stage == stage && sp.lo <= lo && lo+stageWindow <= sp.hi
	}
	if !inside {
		t.Errorf("%s: window [%d,%d) does not lie inside one %s span of %+v", what, lo, lo+stageWindow, stage, stagedRun)
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
		ws, err := crossWindows(a, b, stagedRun, tc.stage)
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
		win, err := crossWindowAt(a, b, stagedRun, tc.stage, tc.tick)
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
// crossMetricIdx[i] of side a and row K+i the same metric of side b at the
// same tick, a mask on either side survives into the joint trace (the
// unmasked side reads all-true, an unmasked pair stays unmasked), and sides
// of different lengths do not join.
func TestJoinTracesStageAlignment(t *testing.T) {
	a, b := stagedTrace(t, "10.0.0.2", 0), stagedTrace(t, "10.0.0.3", 10000)
	j, err := joinTraces(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if j.NodeIP != "10.0.0.2~10.0.0.3" || j.Valid != nil {
		t.Fatalf("joint trace %q, masks %v: want 10.0.0.2~10.0.0.3, unmasked", j.NodeIP, j.Valid != nil)
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
