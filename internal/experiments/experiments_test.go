package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"invarnetx/internal/arx"
	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/faults"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/workload"
)

// tinyOptions keeps the end-to-end tests fast: small inputs, few runs.
func tinyOptions() Options {
	opts := DefaultOptions()
	opts.InputMB = 6 * 1024
	opts.TrainRuns = 4
	opts.RunsPerFault = 4
	opts.SignatureRuns = 2
	opts.FaultStart = 8
	opts.FaultTicks = 20
	opts.SessionTicks = 50
	return opts
}

func TestOptionsDefaults(t *testing.T) {
	r := NewRunner(Options{})
	opts := r.opts
	if opts.Slaves != 4 || opts.RunsPerFault != 40 || opts.SignatureRuns != 2 {
		t.Errorf("defaults not applied: %+v", opts)
	}
	if opts.FaultTicks != 30 || opts.FaultStart != 10 {
		t.Errorf("fault window defaults: start=%d ticks=%d", opts.FaultStart, opts.FaultTicks)
	}
	if opts.Config.Assoc == nil {
		t.Error("association default missing")
	}
}

// TestOptionsKeepAPartialConfig: a Config that sets some fields keeps them
// and takes core's defaults for the rest, as a System built from it would —
// it is not swapped for DefaultConfig because it names no Assoc.
func TestOptionsKeepAPartialConfig(t *testing.T) {
	cfg := NewRunner(Options{Config: core.Config{Epsilon: 0.3, Lifecycle: true}}).opts.Config
	if cfg.Epsilon != 0.3 || !cfg.Lifecycle {
		t.Errorf("caller's fields replaced: epsilon=%v lifecycle=%v", cfg.Epsilon, cfg.Lifecycle)
	}
	want := core.New(core.Config{Epsilon: 0.3, Lifecycle: true}).Config()
	if cfg.Tau != want.Tau || cfg.AssocCacheSize != want.AssocCacheSize || cfg.Assoc == nil {
		t.Errorf("unset fields not defaulted as core.New does: tau=%v cache=%d", cfg.Tau, cfg.AssocCacheSize)
	}
}

func TestNormalRunProducesTraces(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.Run(workload.Wordcount, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) != 4 {
		t.Fatalf("traces for %d nodes, want 4", len(res.Traces))
	}
	if res.TargetIP != "" || res.Fault != "" {
		t.Error("normal run should have no fault target")
	}
	for ip, tr := range res.Traces {
		if tr.Len() < 20 {
			t.Errorf("node %s trace too short: %d", ip, tr.Len())
		}
		if tr.Len() != len(tr.CPI) {
			t.Errorf("node %s CPI misaligned", ip)
		}
	}
	if res.DurationTicks <= 0 {
		t.Errorf("duration = %d", res.DurationTicks)
	}
}

func TestFaultRunTargetsSlaveZero(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.Run(workload.Wordcount, faults.CPUHog, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetIP != firstSlaveIP {
		t.Errorf("target = %q", res.TargetIP)
	}
	if res.TargetTrace() == nil {
		t.Fatal("no target trace")
	}
	// The faulted run must be slower than the clean one.
	clean, err := r.Run(workload.Wordcount, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DurationTicks <= clean.DurationTicks {
		t.Errorf("cpu-hog run (%d) not slower than clean (%d)", res.DurationTicks, clean.DurationTicks)
	}
}

func TestRunDeterminism(t *testing.T) {
	r := NewRunner(tinyOptions())
	a, err := r.Run(workload.Sort, faults.DiskHog, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(workload.Sort, faults.DiskHog, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.DurationTicks != b.DurationTicks {
		t.Fatalf("durations differ: %d vs %d", a.DurationTicks, b.DurationTicks)
	}
	ta, tb := a.TargetTrace(), b.TargetTrace()
	for i := range ta.CPI {
		if ta.CPI[i] != tb.CPI[i] {
			t.Fatalf("CPI diverged at %d", i)
		}
	}
}

func TestRunRejectsUnknownFault(t *testing.T) {
	r := NewRunner(tinyOptions())
	if _, err := r.Run(workload.Wordcount, "nosuch", 0); err == nil {
		t.Error("unknown fault should error")
	}
}

func TestFaultKindsFor(t *testing.T) {
	batch := FaultKindsFor(workload.Wordcount)
	inter := FaultKindsFor(workload.TPCDS)
	if len(batch) != 14 {
		t.Errorf("batch kinds = %d, want 14 (no overload under FIFO)", len(batch))
	}
	if len(inter) != 15 {
		t.Errorf("interactive kinds = %d, want 15", len(inter))
	}
	for _, k := range batch {
		if k == faults.Overload {
			t.Error("overload must not run under batch workloads")
		}
	}
}

func TestAbnormalWindow(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.Run(workload.Wordcount, faults.MemHog, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.TargetTrace()
	win, err := AbnormalWindow(tr, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() != 20 {
		t.Errorf("window len = %d, want 20", win.Len())
	}
	// A start past the end shifts back.
	win, err = AbnormalWindow(tr, tr.Len()+5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() != 20 {
		t.Errorf("clamped window len = %d", win.Len())
	}
	// Length longer than the trace truncates.
	win, err = AbnormalWindow(tr, 0, tr.Len()+100)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() != tr.Len() {
		t.Errorf("oversized window len = %d, want %d", win.Len(), tr.Len())
	}
}

func TestTrainSystemCoversAllNodes(t *testing.T) {
	r := NewRunner(tinyOptions())
	sys, runs, err := r.TrainSystem(workload.Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Errorf("training runs = %d", len(runs))
	}
	for ip := range runs[0].Traces {
		ctx := contextFor(workload.Wordcount, ip)
		if _, err := sys.Detector(ctx); err != nil {
			t.Errorf("no detector for %v: %v", ctx, err)
		}
		set, err := sys.Invariants(ctx)
		if err != nil {
			t.Errorf("no invariants for %v: %v", ctx, err)
			continue
		}
		if set.Len() < 10 {
			t.Errorf("%v has only %d invariants", ctx, set.Len())
		}
	}
}

func TestDiagnosisStudySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline study")
	}
	r := NewRunner(tinyOptions())
	st, err := r.RunDiagnosisStudy(workload.Wordcount, "invarnet-x")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Rows) != 14 {
		t.Fatalf("rows = %d", len(st.Rows))
	}
	totalDetected := 0
	for _, row := range st.Rows {
		if row.Runs != 2 {
			t.Errorf("%s runs = %d, want 2", row.Fault, row.Runs)
		}
		totalDetected += row.Detected
	}
	// Detection is the robust part of the pipeline: nearly every faulted
	// run must trip the CPI monitor.
	if totalDetected < 24 {
		t.Errorf("detected %d of 28 faulted runs", totalDetected)
	}
	// Diagnosis must be far better than the 1/14 random-guess rate.
	if st.AveragePrecision() < 0.3 || st.AverageRecall() < 0.3 {
		t.Errorf("avg P=%.2f R=%.2f, far below expectation", st.AveragePrecision(), st.AverageRecall())
	}
	var buf bytes.Buffer
	PrintStudy(&buf, st, "test")
	if !strings.Contains(buf.String(), "averages") {
		t.Error("PrintStudy output incomplete")
	}
}

func TestFig2BenignDisturbance(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.RunFig2()
	if err != nil {
		t.Fatal(err)
	}
	if res.P95Shift > 0.06 || res.P95Shift < -0.06 {
		t.Errorf("benign disturbance moved p95 CPI by %.1f%%", 100*res.P95Shift)
	}
	if res.DurationShift > 0.15 {
		t.Errorf("benign disturbance stretched the job by %.1f%%", 100*res.DurationShift)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Fig 2") {
		t.Error("missing header")
	}
}

func TestFig4CPITracksTime(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.RunFig4(workload.Wordcount, 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correlation < 0.9 {
		t.Errorf("corr = %.3f, want > 0.9 (paper: 0.97)", res.Correlation)
	}
	if !res.Monotone {
		t.Error("2nd-order fit should be monotone increasing")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "corr") {
		t.Error("missing correlation line")
	}
}

func TestFig5ResidualSeparation(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.RunFig5(workload.Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	var in, out float64
	var nIn, nOut int
	for i, v := range res.Residuals {
		if res.Window.Active(i + res.Lead) {
			in += v
			nIn++
		} else {
			out += v
			nOut++
		}
	}
	if nIn == 0 || nOut == 0 {
		t.Fatal("residuals do not straddle the fault window")
	}
	if in/float64(nIn) < 3*out/float64(nOut) {
		t.Errorf("in-window residual %.4f not well above outside %.4f", in/float64(nIn), out/float64(nOut))
	}
}

func TestFig6RuleOrdering(t *testing.T) {
	r := NewRunner(tinyOptions())
	res, err := r.RunFig6(workload.Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rules) != 3 {
		t.Fatalf("rules = %d", len(res.Rules))
	}
	byRule := map[string]Fig6Rule{}
	for _, fr := range res.Rules {
		byRule[fr.Rule.String()] = fr
		if fr.Hits == 0 {
			t.Errorf("%v detected nothing in the fault window", fr.Rule)
		}
	}
	// The paper's finding: the 95-percentile rule is the worst (lowest
	// threshold, most false alarms).
	if byRule["95-percentile"].FalseAlarms < byRule["beta-max"].FalseAlarms {
		t.Errorf("95-percentile (%d false alarms) should not beat beta-max (%d)",
			byRule["95-percentile"].FalseAlarms, byRule["beta-max"].FalseAlarms)
	}
}

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive timing study")
	}
	opts := tinyOptions()
	opts.TrainRuns = 3
	r := NewRunner(opts)
	res, err := r.RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		// The paper's headline overhead claim: ARX invariant construction
		// is far costlier than MIC's.
		if row.InvarARX < 3*row.InvarC {
			t.Errorf("%s: Invar-C(ARX) %v not well above Invar-C %v", row.Workload, row.InvarARX, row.InvarC)
		}
		// Online stages are fast.
		if row.PerfD > row.InvarC {
			t.Errorf("%s: Perf-D %v slower than offline Invar-C %v", row.Workload, row.PerfD, row.InvarC)
		}
		if row.CauseARX < row.CauseI {
			t.Errorf("%s: Cause-I(ARX) %v below Cause-I %v", row.Workload, row.CauseARX, row.CauseI)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Error("missing header")
	}
}

func TestVariantsConfig(t *testing.T) {
	base := tinyOptions().Config
	same := func(f, g invariant.AssociationFunc) bool {
		return reflect.ValueOf(f).Pointer() == reflect.ValueOf(g).Pointer()
	}
	if arxCfg := configFor(VariantARX, base); !same(arxCfg.Assoc, arx.Association) {
		t.Error("arx variant does not score with arx.Association")
	}
	inv := configFor(VariantInvarNetX, base)
	if !same(inv.Assoc, mic.MIC) {
		t.Error("invarnet-x variant altered: want mic.MIC")
	}
	if len(variants()) != 3 {
		t.Error("three variants expected")
	}
}

// TestNoContextArmPoolsEveryNode pins the Figs. 9/10 ablation, which lives
// in its runner: the no-context arm trains one zero-Context profile on every
// slave's windows — its detector and set are, to the bit, those of a fresh
// profile trained once on every slave's training set in node order — labels
// and diagnoses through that profile, and still reports each diagnosis under
// the row's own node.
func TestNoContextArmPoolsEveryNode(t *testing.T) {
	r := NewRunner(tinyOptions()).variant(VariantNoContext)
	w := workload.Wordcount
	sys, normal, err := r.TrainSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	only := func(stage string) core.ProfileStats {
		t.Helper()
		ps := sys.ProfileStats()
		if len(ps) != 1 || ps[0].Context != (core.Context{}) {
			t.Fatalf("%s: profiles %v, want the zero Context's alone", stage, ps)
		}
		return ps[0]
	}
	slaves := r.opts.Slaves
	if st := only("trained"); !st.HasModel || st.Invariants == 0 {
		t.Fatalf("trained %+v, want one model and one invariant set", st)
	}
	var cpis [][]float64
	var windows []*metrics.Trace
	for _, ip := range sortedKeys(normal[0].Traces) {
		c, win := r.trainingSet(normal, ip)
		cpis, windows = append(cpis, c...), append(windows, win...)
	}
	if len(windows) != slaves*r.opts.TrainRuns {
		t.Fatalf("test setup: %d training windows, want %d runs of %d slaves", len(windows), r.opts.TrainRuns, slaves)
	}
	ref := core.New(r.opts.Config).Profile(core.Context{})
	if err := ref.TrainPerformanceModel(cpis); err != nil {
		t.Fatal(err)
	}
	if err := ref.TrainInvariants(windows, nil); err != nil {
		t.Fatal(err)
	}
	sameModel(t, sys.Profile(core.Context{}), ref)

	label := r.LabelRows("no-context-arm", w, faults.CPUHog)
	if err := r.Label(sys, label); err != nil {
		t.Fatal(err)
	}
	labelled := only("labelled")
	if labelled.Signatures == 0 || labelled.Signatures != sys.SignatureCount() {
		t.Fatalf("labelled %d signatures into the profile, %d in the system", labelled.Signatures, sys.SignatureCount())
	}

	nodes := map[string]bool{}
	for i := 0; i < slaves; i++ {
		sc := Scenario{Study: "no-context-arm", Workload: w, Faults: []faults.Kind{faults.CPUHog}, Index: i, Origin: Oracle}
		out, err := r.Observe(sys, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Context{Workload: string(w), IP: out.Run.TargetIP}
		if out.Context != want || out.Diagnosis == nil || out.Diagnosis.Context != want {
			t.Fatalf("row %d: outcome under %v, diagnosis %+v; want both under %v", i, out.Context, out.Diagnosis, want)
		}
		if len(out.Diagnosis.Causes) == 0 {
			t.Errorf("row %d on %v: no cause from the pooled signatures", i, want.IP)
		}
		nodes[want.IP] = true
	}
	if len(nodes) != slaves {
		t.Errorf("rows landed on %d nodes, want all %d", len(nodes), slaves)
	}
	if st := only("diagnosed"); st.Cache.Hits+st.Cache.Misses < labelled.Cache.Hits+labelled.Cache.Misses+int64(slaves) {
		t.Errorf("diagnoses did not go through the pooled profile: cache %+v after labelling, %+v after", labelled.Cache, st.Cache)
	}
}

// sameModel fails unless profiles got and want hold the same detector and the
// same invariant set, every float compared by its bits.
func sameModel(t *testing.T, got, want *core.Profile) {
	t.Helper()
	gd, err := got.Detector()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := want.Detector()
	if err != nil {
		t.Fatal(err)
	}
	detectorBits := func(d *detect.Detector) []uint64 {
		m := d.Model
		bits := []uint64{uint64(d.Rule), math.Float64bits(d.Upper), math.Float64bits(d.Lower), uint64(d.Consecutive),
			uint64(m.Order.P), uint64(m.Order.Q), uint64(m.N),
			math.Float64bits(m.Intercept), math.Float64bits(m.Sigma2), math.Float64bits(m.AIC), math.Float64bits(m.LogLik)}
		for _, c := range append(append([]float64(nil), m.AR...), m.MA...) {
			bits = append(bits, math.Float64bits(c))
		}
		return bits
	}
	if !reflect.DeepEqual(detectorBits(gd), detectorBits(wd)) {
		t.Errorf("detector %+v (model %+v), reference %+v (model %+v)", gd, gd.Model, wd, wd.Model)
	}
	gs, err := got.Invariants()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.Invariants()
	if err != nil {
		t.Fatal(err)
	}
	if gs.M != ws.M || !reflect.DeepEqual(gs.SortedPairs(), ws.SortedPairs()) {
		t.Fatalf("invariant set M=%d with %d pairs, reference M=%d with %d", gs.M, gs.Len(), ws.M, ws.Len())
	}
	for _, pr := range ws.SortedPairs() {
		if g, w := gs.Base[pr], ws.Base[pr]; math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("baseline of %v is %v, reference %v", pr, g, w)
		}
	}
}

// contextFor builds the operation context used by the runner.
func contextFor(w workload.Type, ip string) core.Context {
	return core.Context{Workload: string(w), IP: ip}
}
