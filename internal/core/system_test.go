package core

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// synthTrace builds a metrics.Trace whose first `coupled` rows are noisy
// functions of one latent load series and whose remaining rows are
// independent noise. decouple lists row indices to break (replace with
// fresh noise) — simulating a fault that detaches those metrics.
func synthTrace(rng *stats.RNG, length, coupled int, decouple map[int]bool) *metrics.Trace {
	tr := metrics.NewTrace("10.0.0.2", "wordcount")
	latent := make([]float64, length)
	for t := range latent {
		latent[t] = rng.Uniform(0, 1)
	}
	for t := 0; t < length; t++ {
		row := make([]float64, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			switch {
			case decouple[m]:
				row[m] = rng.Uniform(0, 1)
			case m < coupled:
				row[m] = float64(m+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				row[m] = rng.Uniform(0, 1)
			}
		}
		cpiVal := 1.0 + 0.3*latent[t] + rng.Normal(0, 0.02)
		if err := tr.Add(row, cpiVal); err != nil {
			panic(err)
		}
	}
	return tr
}

const traceLen = 100

func trainSystem(t *testing.T, cfg Config, ctx Context, seed int64) *System {
	t.Helper()
	s := New(cfg)
	rng := stats.NewRNG(seed)
	var runs []*metrics.Trace
	var cpis [][]float64
	for i := 0; i < 6; i++ {
		tr := synthTrace(rng.Fork(int64(i)), traceLen, 8, nil)
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainInvariants(ctx, runs); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTrainingProducesInvariants(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 600)
	set, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The 8 coupled rows form C(8,2)=28 strongly associated pairs; all of
	// them should be stable invariants. Some noise-noise pairs may also be
	// stably low — that is fine and realistic.
	if set.Len() < 28 {
		t.Errorf("invariants = %d, want >= 28", set.Len())
	}
	if _, err := s.Detector(ctx); err != nil {
		t.Errorf("detector missing: %v", err)
	}
}

func TestUntrainedContextErrors(t *testing.T) {
	s := New(DefaultConfig())
	ctx := Context{Workload: "sort", IP: "10.0.0.9"}
	if _, err := s.Detector(ctx); !errors.Is(err, ErrNoModel) {
		t.Errorf("err = %v, want ErrNoModel", err)
	}
	if _, err := s.Invariants(ctx); !errors.Is(err, ErrNoInvariants) {
		t.Errorf("err = %v, want ErrNoInvariants", err)
	}
	if _, err := s.Violations(ctx, synthTrace(stats.NewRNG(1), 50, 8, nil)); err == nil {
		t.Error("violation report without invariants should error")
	}
}

func TestDiagnoseRecoversInjectedProblem(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 601)
	rng := stats.NewRNG(602)

	// Two distinct "faults": fault A decouples rows 0-2, fault B rows 5-7.
	faultA := map[int]bool{0: true, 1: true, 2: true}
	faultB := map[int]bool{5: true, 6: true, 7: true}
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(1), 40, 8, faultA)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(ctx, "fault-b", synthTrace(rng.Fork(2), 40, 8, faultB)); err != nil {
		t.Fatal(err)
	}
	if s.SignatureCount() != 2 {
		t.Fatalf("signatures = %d", s.SignatureCount())
	}

	// A fresh occurrence of fault A must rank fault-a first.
	diag, err := s.Diagnose(ctx, synthTrace(rng.Fork(3), 40, 8, faultA))
	if err != nil {
		t.Fatal(err)
	}
	if diag.RootCause() != "fault-a" {
		t.Errorf("root cause = %q, causes = %v", diag.RootCause(), diag.Causes)
	}
	if len(diag.Hints) == 0 {
		t.Error("no hints reported")
	}
	for _, h := range diag.Hints {
		if !strings.Contains(h, "-") {
			t.Errorf("hint %q not a metric pair", h)
		}
	}
}

func TestDiagnoseUnknownProblemGivesHintsOnly(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 603)
	diag, err := s.Diagnose(ctx, synthTrace(stats.NewRNG(604), 40, 8, map[int]bool{0: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) != 0 {
		t.Errorf("causes = %v, want none (empty database)", diag.Causes)
	}
	if diag.RootCause() != "" {
		t.Errorf("RootCause = %q", diag.RootCause())
	}
	if len(diag.Hints) == 0 {
		t.Error("expected hints for the unknown problem")
	}
}

func TestContextScopingSeparatesSignatures(t *testing.T) {
	ctxA := Context{Workload: "wordcount", IP: "10.0.0.2"}
	ctxB := Context{Workload: "wordcount", IP: "10.0.0.3"}
	s := trainSystem(t, DefaultConfig(), ctxA, 605)
	// Train B as well.
	rng := stats.NewRNG(606)
	var runs []*metrics.Trace
	var cpis [][]float64
	for i := 0; i < 6; i++ {
		tr := synthTrace(rng.Fork(int64(i)), traceLen, 8, nil)
		runs = append(runs, tr)
		cpis = append(cpis, tr.CPI)
	}
	if err := s.TrainPerformanceModel(ctxB, cpis); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainInvariants(ctxB, runs); err != nil {
		t.Fatal(err)
	}
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctxA, "fault-a", synthTrace(rng.Fork(100), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	// Diagnosing on node B must not see node A's signature.
	diag, err := s.Diagnose(ctxB, synthTrace(rng.Fork(101), 40, 8, fault))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) != 0 {
		t.Errorf("context leak: %v", diag.Causes)
	}
}

func TestNoContextPoolsEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseContext = false
	ctxA := Context{Workload: "wordcount", IP: "10.0.0.2"}
	ctxB := Context{Workload: "sort", IP: "10.0.0.3"}
	s := trainSystem(t, cfg, ctxA, 607)
	rng := stats.NewRNG(608)
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctxA, "fault-a", synthTrace(rng.Fork(1), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	// Under no-context, a different context still matches the signature.
	diag, err := s.Diagnose(ctxB, synthTrace(rng.Fork(2), 40, 8, fault))
	if err != nil {
		t.Fatal(err)
	}
	if diag.RootCause() != "fault-a" {
		t.Errorf("no-context diagnosis = %q", diag.RootCause())
	}
	// And its detector is shared.
	if _, err := s.Detector(ctxB); err != nil {
		t.Errorf("no-context detector not shared: %v", err)
	}
}

// TestCallerContextAtSystemBoundary: without operation context every ctx is
// answered by the global profile (key Context{}), but what crosses the
// System boundary must speak of the context the caller asked about — the
// sentinel still matches, the message names the caller's ctx, and a
// diagnosis carries it.
func TestCallerContextAtSystemBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseContext = false
	caller := Context{Workload: "sort", IP: "10.0.0.3"}
	win := synthTrace(stats.NewRNG(620), 40, 8, map[int]bool{0: true})

	check := func(s *System, stage string) {
		t.Helper()
		_, errInv := s.Invariants(caller)
		_, errDet := s.Detector(caller)
		_, errVio := s.Violations(caller, win)
		_, errDia := s.Diagnose(caller, win)
		errSig := s.BuildSignature(caller, "fault", win)
		for _, c := range []struct {
			op   string
			err  error
			want error
		}{
			{"Invariants", errInv, ErrNoInvariants},
			{"Detector", errDet, ErrNoModel},
			{"Violations", errVio, ErrNoInvariants},
			{"Diagnose", errDia, ErrNoInvariants},
			{"BuildSignature", errSig, ErrNoInvariants},
		} {
			if !errors.Is(c.err, c.want) {
				t.Errorf("%s, %s: err = %v, want %v", stage, c.op, c.err, c.want)
			} else if !strings.Contains(c.err.Error(), caller.String()) {
				t.Errorf("%s, %s: error %q does not name the caller's context %v", stage, c.op, c.err, caller)
			}
		}
	}
	// No profile at all, then a global profile that exists (a signature
	// merged from elsewhere) but is untrained: same contract either way.
	s := New(cfg)
	check(s, "no profile")
	s.MergeSignature(signature.Entry{Problem: "seen-elsewhere", Tuple: signature.Tuple{true}})
	check(s, "untrained profile")

	// Trained under one context, asked under another: answers come from the
	// global profile and are addressed to the caller.
	s = trainSystem(t, cfg, Context{Workload: "wordcount", IP: "10.0.0.2"}, 621)
	if _, err := s.Invariants(caller); err != nil {
		t.Errorf("Invariants: %v", err)
	}
	if _, err := s.Detector(caller); err != nil {
		t.Errorf("Detector: %v", err)
	}
	if _, err := s.Violations(caller, win); err != nil {
		t.Errorf("Violations: %v", err)
	}
	if err := s.BuildSignature(caller, "fault", win); err != nil {
		t.Errorf("BuildSignature: %v", err)
	}
	diag, err := s.Diagnose(caller, win)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if diag.Context != caller {
		t.Errorf("Diagnosis.Context = %v, want the caller's %v", diag.Context, caller)
	}
	if diag.RootCause() != "fault" {
		t.Errorf("root cause = %q, want the signature just built", diag.RootCause())
	}
}

func TestMonitorIntegration(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 609)
	rng := stats.NewRNG(610)
	normal := synthTrace(rng, traceLen, 8, nil)
	d, err := s.Detector(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m := d.NewMonitor(normal.CPI[:10])
	for _, v := range normal.CPI[10:] {
		m.Offer(v)
	}
	if m.Alert() {
		t.Error("alert on normal CPI")
	}
	// CPI level shift (e.g. CPU hog doubles stall cycles).
	for i := 0; i < 6; i++ {
		m.Offer(2.5)
	}
	if !m.Alert() {
		t.Error("no alert on shifted CPI")
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 611)
	rng := stats.NewRNG(612)
	fault := map[int]bool{3: true, 4: true}
	if err := s.BuildSignature(ctx, "fault-x", synthTrace(rng.Fork(1), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}

	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial() {
		t.Fatalf("clean store loaded partially: %v", rep)
	}
	if s2.SignatureCount() != 1 {
		t.Fatalf("loaded signatures = %d", s2.SignatureCount())
	}
	if _, err := s2.Detector(ctx); err != nil {
		t.Errorf("loaded detector missing: %v", err)
	}
	set1, _ := s.Invariants(ctx)
	set2, err := s2.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if set1.Len() != set2.Len() {
		t.Errorf("invariants %d != %d after reload", set2.Len(), set1.Len())
	}
	// The reloaded system diagnoses like the original.
	occur := synthTrace(rng.Fork(2), 40, 8, fault)
	d1, err := s.Diagnose(ctx, occur)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s2.Diagnose(ctx, occur)
	if err != nil {
		t.Fatal(err)
	}
	if d1.RootCause() != d2.RootCause() {
		t.Errorf("reloaded diagnosis %q != %q", d2.RootCause(), d1.RootCause())
	}
}

func TestLoadFromMissingDir(t *testing.T) {
	s := New(DefaultConfig())
	if _, err := s.LoadFrom("/nonexistent/dir"); err == nil {
		t.Error("missing dir should error")
	}
}

func TestConfigDefaults(t *testing.T) {
	s := New(Config{})
	cfg := s.Config()
	if cfg.Epsilon != 0.2 || cfg.Tau != 0.2 {
		t.Errorf("defaults: eps=%v tau=%v", cfg.Epsilon, cfg.Tau)
	}
	if !isStockMIC(cfg.Assoc) {
		t.Error("association default not applied")
	}
	if cfg.Detect.Beta != 1.2 || cfg.Detect.Consecutive != 3 {
		t.Errorf("detect defaults: %+v", cfg.Detect)
	}
}

func TestTopKLimitsCauses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TopK = 1
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, cfg, ctx, 613)
	rng := stats.NewRNG(614)
	for i, name := range []string{"p1", "p2", "p3"} {
		fault := map[int]bool{i: true}
		if err := s.BuildSignature(ctx, name, synthTrace(rng.Fork(int64(i)), 40, 8, fault)); err != nil {
			t.Fatal(err)
		}
	}
	diag, err := s.Diagnose(ctx, synthTrace(rng.Fork(99), 40, 8, map[int]bool{0: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(diag.Causes) > 1 {
		t.Errorf("TopK=1 but %d causes", len(diag.Causes))
	}
}

func TestContextString(t *testing.T) {
	c := Context{Workload: "sort", IP: "10.0.0.5"}
	if c.String() != "sort@10.0.0.5" {
		t.Errorf("String = %q", c.String())
	}
}

func TestDiagnosisTupleMatchesSignature(t *testing.T) {
	// The tuple returned in the diagnosis is the one matched against the
	// database (sanity link between Violations and Diagnose).
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 615)
	ab := synthTrace(stats.NewRNG(616), 40, 8, map[int]bool{2: true})
	rep, err := s.Violations(ctx, ab)
	if err != nil {
		t.Fatal(err)
	}
	diag, err := s.Diagnose(ctx, ab)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Tuple.String() != signature.Tuple(rep.Tuple).String() {
		t.Error("diagnosis tuple differs from Violations report")
	}
}

func TestConcurrentDiagnosis(t *testing.T) {
	// The centralized server diagnoses many nodes at once; concurrent
	// reads of the trained state must be safe (run with -race).
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 620)
	rng := stats.NewRNG(621)
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(1), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := stats.NewRNG(int64(700 + g))
			for i := 0; i < 5; i++ {
				if _, err := s.Diagnose(ctx, synthTrace(local.Fork(int64(i)), 40, 8, fault)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	// Writers add signatures concurrently with readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := stats.NewRNG(int64(800 + g))
			for i := 0; i < 3; i++ {
				if err := s.BuildSignature(ctx, "fault-b", synthTrace(local.Fork(int64(i)), 40, 8, fault)); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
