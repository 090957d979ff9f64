package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"invarnetx/internal/detect"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
)

// TestCleanWindowDiagnosisPinned reimplements the pre-profile clean-window
// pipeline inline (batch-scored matrix → Violations → context-scoped Match
// → BestProblem → the top five) and pins Diagnose bit-identical to it: same tuple,
// nil Known, Coverage 1, and the exact same ranked causes with the exact
// same scores. The masked-first unification must make the clean window the
// all-known case, not a slightly different computation.
func TestCleanWindowDiagnosisPinned(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 810)
	rng := stats.NewRNG(811)
	faultA := map[int]bool{0: true, 1: true}
	faultB := map[int]bool{5: true, 6: true, 7: true}
	sigWinA := synthTrace(rng.Fork(1), 40, 8, faultA)
	sigWinB := synthTrace(rng.Fork(2), 40, 8, faultB)
	if err := s.BuildSignature(ctx, "fault-a", sigWinA); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(ctx, "fault-b", sigWinB); err != nil {
		t.Fatal(err)
	}
	ab := synthTrace(rng.Fork(3), 40, 8, faultA)

	// Legacy pipeline, inline. The old clean path preferred the batch
	// scorer (stock MIC: one mic.NewBatch per window) and matched with nil mask.
	set, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	legacyMatrix := func(rows [][]float64) *invariant.Matrix {
		scorer, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mat, err := invariant.ComputeMatrixScored(len(rows), scorer)
		if err != nil {
			t.Fatal(err)
		}
		return mat
	}
	legacyDB := signature.NewDB(ctx.Workload, ctx.IP)
	for _, sw := range []struct {
		problem string
		win     *metrics.Trace
	}{{"fault-a", sigWinA}, {"fault-b", sigWinB}} {
		raw, _ := denseViolations(set, legacyMatrix(sw.win.Rows), cfg.Epsilon, nil, nil)
		legacyDB.Add(sw.problem, raw)
	}
	rawAb, _ := denseViolations(set, legacyMatrix(ab.Rows), cfg.Epsilon, nil, nil)
	legacyTuple := signature.Tuple(rawAb)
	matches, err := legacyDB.MatchMasked(legacyTuple, nil, ctx.IP, ctx.Workload, cfg.Similarity, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacyCauses := signature.BestProblem(matches)
	if len(legacyCauses) > topCauses {
		legacyCauses = legacyCauses[:topCauses]
	}

	diag, err := s.Diagnose(ctx, ab)
	if err != nil {
		t.Fatal(err)
	}
	if diag.Known != nil || diag.Unknown != nil {
		t.Errorf("clean window: Known=%v Unknown=%v, want both nil", diag.Known, diag.Unknown)
	}
	if diag.Coverage != 1 {
		t.Errorf("clean window Coverage = %v, want exactly 1", diag.Coverage)
	}
	if diag.Tuple.String() != legacyTuple.String() {
		t.Errorf("tuple %s differs from legacy %s", diag.Tuple, legacyTuple)
	}
	if len(diag.Causes) != len(legacyCauses) {
		t.Fatalf("got %d causes, legacy %d", len(diag.Causes), len(legacyCauses))
	}
	for i, c := range diag.Causes {
		if c.Problem != legacyCauses[i].Problem || c.Score != legacyCauses[i].Score {
			t.Errorf("cause %d: got %s %v, legacy %s %v",
				i, c.Problem, c.Score, legacyCauses[i].Problem, legacyCauses[i].Score)
		}
	}
	if diag.RootCause() != "fault-a" {
		t.Errorf("root cause = %q, want fault-a", diag.RootCause())
	}
	if diag.Confidence != legacyCauses[0].Score {
		t.Errorf("Confidence = %v, want top legacy score %v", diag.Confidence, legacyCauses[0].Score)
	}
}

// referenceCauses is the composition Diagnose's cause inference replaced
// with signature.DB.Rank: the full ranked match list of the diagnosed tuple,
// one best match per problem, cut to topCauses, weighted by coverage.
func referenceCauses(t *testing.T, s *System, ctx Context, d *Diagnosis) []signature.Match {
	t.Helper()
	cfg := s.Config()
	matches, err := s.Profile(ctx).SignatureSnapshot().MatchMasked(d.Tuple, d.Known, ctx.IP, ctx.Workload, cfg.Similarity, 0)
	if err != nil {
		t.Fatal(err)
	}
	ranked := signature.BestProblem(matches)
	if len(ranked) > topCauses {
		ranked = ranked[:topCauses]
	}
	for i := range ranked {
		if d.Coverage < 1 {
			ranked[i].Score *= d.Coverage
		}
	}
	return ranked
}

// maskMetric rebuilds tr with metric m invalid throughout, so every
// invariant touching it is unknown.
func maskMetric(t *testing.T, tr *metrics.Trace, m int) *metrics.Trace {
	t.Helper()
	out := metrics.NewTrace("10.0.0.2", "wordcount")
	for tick := range tr.CPI {
		row := make([]float64, len(tr.Rows))
		valid := make([]bool, len(tr.Rows))
		for k := range tr.Rows {
			row[k] = tr.Rows[k][tick]
			valid[k] = k != m
		}
		addMasked(out, row, valid, tr.CPI[tick])
	}
	return out
}

// TestDiagnoseCausesEqualReferenceComposition extends the legacy-composition
// pin above to a fault corpus: for every held-out window of every fault,
// clean and masked, Diagnosis.Causes must be exactly — scores, order and the
// representative signature of each problem — what BestProblem over the full
// match list yields.
func TestDiagnoseCausesEqualReferenceComposition(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	faults := []map[int]bool{
		{0: true, 1: true},
		{1: true, 2: true},
		{5: true, 6: true, 7: true},
		{3: true},
		{2: true, 4: true, 6: true},
		{0: true, 7: true},
	}
	s := trainSystem(t, DefaultConfig(), ctx, 820)
	rng := stats.NewRNG(821)
	for f, fault := range faults {
		for k := 0; k < 3; k++ { // several signatures per problem: ties and near-ties
			win := synthTrace(rng.Fork(int64(100*f+k)), 40, 8, fault)
			if err := s.BuildSignature(ctx, fmt.Sprintf("fault-%d", f), win); err != nil {
				t.Fatal(err)
			}
		}
	}
	multi, degraded := 0, 0
	for f, fault := range faults {
		for k := 0; k < 4; k++ {
			clean := synthTrace(rng.Fork(int64(1000+100*f+k)), 40, 8, fault)
			for _, win := range []*metrics.Trace{clean, maskMetric(t, clean, (f+k)%8)} {
				diag, err := s.Diagnose(ctx, win)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceCauses(t, s, ctx, diag)
				if len(diag.Causes) != len(want) || (len(want) > 0 && !reflect.DeepEqual(diag.Causes, want)) {
					t.Errorf("fault %d window %d masked=%v:\n got %+v\nwant %+v",
						f, k, diag.Known != nil, diag.Causes, want)
				}
				if len(diag.Causes) > 1 {
					multi++
				}
				if diag.Coverage < 1 {
					degraded++
				}
			}
		}
	}
	if multi == 0 || degraded == 0 {
		t.Errorf("%d windows ranked several causes, %d were degraded; the corpus must exercise both", multi, degraded)
	}
}

// TestConcurrentMultiContextPipeline drives N contexts from N goroutines
// simultaneously — each trains, builds a signature, persists into a shared
// store and diagnoses — exercising the registry, the per-profile
// locks and concurrent SaveTo under the race detector. A fresh system must
// then restore every profile from the shared store.
func TestConcurrentMultiContextPipeline(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	s := New(DefaultConfig())
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := Context{Workload: "wordcount", IP: fmt.Sprintf("10.0.0.%d", g+2)}
			rng := stats.NewRNG(900 + int64(g))
			var runs []*metrics.Trace
			var cpis [][]float64
			for i := 0; i < 3; i++ {
				tr := synthTrace(rng.Fork(int64(i)), 60, 8, nil)
				runs = append(runs, tr)
				cpis = append(cpis, tr.CPI)
			}
			if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
				errs[g] = err
				return
			}
			if err := s.TrainInvariants(ctx, runs); err != nil {
				errs[g] = err
				return
			}
			ab := synthTrace(rng.Fork(10), 60, 8, map[int]bool{1: true, 2: true})
			if err := s.BuildSignature(ctx, "fault-x", ab); err != nil {
				errs[g] = err
				return
			}
			if err := s.Profile(ctx).SaveTo(dir); err != nil {
				errs[g] = err
				return
			}
			diag, err := s.Diagnose(ctx, synthTrace(rng.Fork(11), 60, 8, map[int]bool{1: true, 2: true}))
			if err != nil {
				errs[g] = err
				return
			}
			if diag.RootCause() != "fault-x" {
				errs[g] = fmt.Errorf("context %v diagnosed %q, want fault-x", ctx, diag.RootCause())
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if got := len(s.Profiles()); got != n {
		t.Errorf("registry holds %d profiles, want %d", got, n)
	}
	if got := s.SignatureCount(); got != n {
		t.Errorf("signature count %d, want %d", got, n)
	}

	restored := New(DefaultConfig())
	rep, err := restored.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial() {
		t.Fatalf("restore was partial: %s", rep)
	}
	if rep.Models != n || rep.Invariants != n || rep.Signatures != n {
		t.Errorf("restored %d/%d/%d artefacts, want %d each", rep.Models, rep.Invariants, rep.Signatures, n)
	}
	for g := 0; g < n; g++ {
		ctx := Context{Workload: "wordcount", IP: fmt.Sprintf("10.0.0.%d", g+2)}
		if _, err := restored.Detector(ctx); err != nil {
			t.Errorf("restored detector %v: %v", ctx, err)
		}
	}
}

// TestRetrainReplacesTheFirst: a profile trains on the runs it is given. A
// second training, on runs B, installs exactly the set Select picks over B's
// dense matrices and the detector detect.Train fits on B's CPI traces —
// nothing of the first training, on runs A whose rows 0 and 1 are decoupled,
// survives into either.
func TestRetrainReplacesTheFirst(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	p := New(Config{}).Profile(ctx)
	rng := stats.NewRNG(820)
	batch := func(fork int64, decouple map[int]bool) ([]*metrics.Trace, [][]float64) {
		var runs []*metrics.Trace
		var cpis [][]float64
		for i := int64(0); i < 4; i++ {
			tr := synthTrace(rng.Fork(fork+i), 60, 8, decouple)
			runs, cpis = append(runs, tr), append(cpis, tr.CPI)
		}
		return runs, cpis
	}
	runsA, cpisA := batch(0, map[int]bool{0: true, 1: true})
	runsB, cpisB := batch(10, nil)
	for _, tr := range []struct {
		runs []*metrics.Trace
		cpis [][]float64
	}{{runsA, cpisA}, {runsB, cpisB}} {
		if err := p.TrainPerformanceModel(tr.cpis); err != nil {
			t.Fatal(err)
		}
		if err := p.TrainInvariants(tr.runs, nil); err != nil {
			t.Fatal(err)
		}
	}

	mats := make([]*invariant.Matrix, len(runsB))
	for r, tr := range runsB {
		var err error
		if mats[r], err = invariant.ComputeMaskedMatrixScored(tr.Rows, tr.Valid, mic.MIC, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	want, err := invariant.Select(mats, invariant.DefaultTau)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := want.Base[invariant.Pair{I: 0, J: 1}]; !ok {
		t.Fatal("test setup: B's set lacks the pair A decouples, so the check is vacuous")
	}
	got, err := p.Invariants()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SortedPairs(), want.SortedPairs()) {
		t.Fatalf("retrained set holds %d pairs, Select over B's runs %d", got.Len(), want.Len())
	}
	for _, pr := range want.SortedPairs() {
		if g, w := got.Base[pr], want.Base[pr]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("baseline of %v is %v, Select over B's runs %v", pr, g, w)
		}
	}

	wantD, err := detect.Train(cpisB, detect.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gotD, err := p.Detector()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotD, wantD) {
		t.Fatalf("retrained detector %+v (model %+v), detect.Train over B %+v (model %+v)", gotD, gotD.Model, wantD, wantD.Model)
	}
}

// TestSignatureSnapshotIsolated pins the SignatureDB data-race fix: the
// snapshot is a deep copy, safe to read while writers keep adding, and
// mutating it cannot touch the live databases.
func TestSignatureSnapshotIsolated(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 840)
	rng := stats.NewRNG(841)
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(1), 40, 8, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	snap := s.Profile(ctx).SignatureSnapshot()
	if snap.Len() != 1 {
		t.Fatalf("snapshot holds %d entries, want 1", snap.Len())
	}
	snap.Add("bogus", make(signature.Tuple, 3))
	if s.SignatureCount() != 1 {
		t.Error("mutating the snapshot leaked into the live database")
	}

	// Concurrent writers vs snapshot readers: must be race-clean.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			win := synthTrace(stats.NewRNG(850+int64(g)), 40, 8, map[int]bool{1: true})
			for i := 0; i < 5; i++ {
				if err := s.BuildSignature(ctx, fmt.Sprintf("p%d", g), win); err != nil {
					t.Error(err)
					return
				}
				_ = s.Profile(ctx).SignatureSnapshot().Len()
			}
		}(g)
	}
	wg.Wait()
	// Each goroutine labelled the same (problem, window) 5 times; storage is
	// idempotent by (context, fingerprint), so exactly one entry per distinct
	// problem survives alongside the seed entry.
	if got := s.SignatureCount(); got != 1+4 {
		t.Errorf("signature count %d, want %d", got, 1+4)
	}
}

// TestProfileRegistry pins registry semantics: stable identity per context,
// also under concurrent first use, and sorted enumeration.
func TestProfileRegistry(t *testing.T) {
	s := New(Config{})
	a := Context{Workload: "sort", IP: "10.0.0.3"}
	b := Context{Workload: "grep", IP: "10.0.0.2"}
	if s.Profile(a) != s.Profile(a) {
		t.Error("same context must yield the same profile")
	}
	if s.Profile(a) == s.Profile(b) {
		t.Error("distinct contexts must yield distinct profiles")
	}
	if _, ok := s.lookup(Context{Workload: "never", IP: "trained"}); ok {
		t.Error("lookup must not materialise profiles")
	}
	ps := s.Profiles()
	if len(ps) != 2 || ps[0].key != b || ps[1].key != a {
		t.Errorf("Profiles() = %v, want sorted [%v %v]", ps, b, a)
	}

	// Concurrent first use: every goroutine asks for every context, racing
	// the get-or-create, and all of them must get one profile per context.
	const goroutines, contexts = 8, 32
	s = New(Config{})
	ctxOf := func(i int) Context {
		return Context{Workload: fmt.Sprintf("w%d", i%4), IP: fmt.Sprintf("10.0.%d.%d", i/4, i%4)}
	}
	got := make([][contexts]*Profile, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < contexts; k++ {
				i := (k + 5*g) % contexts // each goroutine starts elsewhere
				got[g][i] = s.Profile(ctxOf(i))
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < contexts; i++ {
		for g := 1; g < goroutines; g++ {
			if got[g][i] != got[0][i] {
				t.Fatalf("context %v: goroutines 0 and %d got different profiles", ctxOf(i), g)
			}
		}
	}
	ps = s.Profiles()
	if len(ps) != contexts {
		t.Fatalf("Profiles() holds %d profiles, want %d", len(ps), contexts)
	}
	for i := 1; i < len(ps); i++ {
		prev, cur := ps[i-1].key, ps[i].key
		if prev.Workload > cur.Workload || (prev.Workload == cur.Workload && prev.IP >= cur.IP) {
			t.Errorf("Profiles() not sorted at %d: %v after %v", i, cur, prev)
		}
	}
}

// TestDegradedPathUsesBatchAndCache pins the tentpole plumbing the old
// masked path lacked: a degraded window's analysis is cached (repeat
// diagnosis hits) and keyed by the validity mask, so a masked window and
// its unmasked twin never share an entry.
func TestDegradedPathUsesBatchAndCache(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 860)
	rng := stats.NewRNG(861)
	ab := synthTrace(rng.Fork(1), 40, 8, map[int]bool{0: true})
	masked := synthTrace(rng.Fork(1), 40, 8, map[int]bool{0: true})
	// Rebuild the same window with a validity mask knocking out metric 3.
	maskedCopy := metrics.NewTrace("10.0.0.2", "wordcount")
	for tick := 0; tick < 40; tick++ {
		row := make([]float64, len(masked.Rows))
		valid := make([]bool, len(masked.Rows))
		for m := range masked.Rows {
			row[m] = masked.Rows[m][tick]
			valid[m] = m != 3 || tick >= 20
		}
		addMasked(maskedCopy, row, valid, masked.CPI[tick])
	}
	before := totals(s).Cache
	if _, err := s.Diagnose(ctx, maskedCopy); err != nil {
		t.Fatal(err)
	}
	st := totals(s).Cache
	if st.Misses != before.Misses+1 {
		t.Fatalf("degraded window must be cached as a miss: %+v -> %+v", before, st)
	}
	if _, err := s.Diagnose(ctx, maskedCopy); err != nil {
		t.Fatal(err)
	}
	if got := totals(s).Cache; got.Hits != st.Hits+1 {
		t.Errorf("repeat degraded window must hit: %+v -> %+v", st, got)
	}
	// The unmasked twin has identical rows but no mask: distinct entry.
	if _, err := s.Diagnose(ctx, ab); err != nil {
		t.Fatal(err)
	}
	if got := totals(s).Cache; got.Misses != st.Misses+1 {
		t.Errorf("unmasked twin must not share the masked entry: %+v -> %+v", st, got)
	}
}
