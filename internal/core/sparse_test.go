package core

import (
	"math"
	"reflect"
	"testing"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// maskTicks rebuilds a trace with a random fraction of samples invalidated
// (stored as NaN with the validity flag cleared), plus one full-outage
// metric — the degraded-telemetry shapes the sparse path must reproduce.
func maskTicks(rng *stats.RNG, tr *metrics.Trace, drop float64, outage int) *metrics.Trace {
	out := metrics.NewTrace(tr.NodeIP, tr.Context)
	for t := 0; t < tr.Len(); t++ {
		sample := make([]float64, metrics.Count)
		valid := make([]bool, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			sample[m] = tr.Rows[m][t]
			valid[m] = rng.Float64() >= drop && m != outage
			if !valid[m] {
				sample[m] = math.NaN()
			}
		}
		addMasked(out, sample, valid, tr.CPI[t])
	}
	return out
}

// denseViolations reads set's violation tuple off a dense matrix filled from
// rows and valid, judging each trained pair with invariant.Violated: a cell
// the matrix marks unknown is unknown, not violated (known[k] false ⇒
// tuple[k] false), and known is nil when no sample of the window is masked
// or non-finite — the edge path's contract.
func denseViolations(set *invariant.Set, mat *invariant.Matrix, eps float64, rows [][]float64, valid [][]bool) (tuple, known []bool) {
	pairs := set.SortedPairs()
	tuple = make([]bool, len(pairs))
	known = make([]bool, len(pairs))
	for k, p := range pairs {
		if known[k] = mat.Known(p.I, p.J); known[k] {
			tuple[k] = invariant.Violated(set.Base[p], mat.Get(p.I, p.J), eps)
		}
	}
	for i, r := range rows {
		for t, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) || (valid != nil && !valid[i][t]) {
				return tuple, known
			}
		}
	}
	return tuple, nil
}

// denseReport is the dense reference the hot path is held to: the full
// masked association matrix through the per-pair Assoc (no batch scorer, no
// prescreen, no cache) read out by denseViolations.
func denseReport(t *testing.T, s *System, ctx Context, tr *metrics.Trace) *ViolationReport {
	t.Helper()
	set, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	mat, err := invariant.ComputeMaskedMatrixScored(tr.Rows, tr.Valid, cfg.Assoc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tuple, known := denseViolations(set, mat, cfg.Epsilon, tr.Rows, tr.Valid)
	rep := &ViolationReport{Tuple: tuple, Known: known, Coverage: 1, set: set}
	checkable := 0
	for k, pr := range set.SortedPairs() {
		if known == nil || known[k] {
			checkable++
			if tuple[k] {
				rep.Violated = append(rep.Violated, pr)
			}
		}
	}
	if known != nil {
		rep.Coverage = float64(checkable) / float64(len(known))
	}
	return rep
}

// TestSparseMatchesExactProperty: over random clean, faulted and degraded
// windows, the tiered hot path (batch scorer, prescreen, trained edges
// only) must produce byte-identical violation reports — tuple, known flags,
// coverage, violated pairs — to the dense reference, and the diagnosis and
// stored signatures must carry exactly that verdict.
func TestSparseMatchesExactProperty(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	sp := trainSystem(t, DefaultConfig(), ctx, 900)

	rng := stats.NewRNG(901)
	// Signatures seeded through the hot path must store the dense tuple.
	for i, prob := range []string{"cpu-hog", "mem-hog", "disk-hog"} {
		abn := synthTrace(rng.Fork(int64(50+i)), 30, 8, map[int]bool{i: true, i + 1: true})
		entry, _, err := sp.BuildSignatureEntry(ctx, prob, abn)
		if err != nil {
			t.Fatal(err)
		}
		if want := denseReport(t, sp, ctx, abn).Tuple; !reflect.DeepEqual(entry.Tuple, want) {
			t.Errorf("%s: stored signature %v != dense tuple %v", prob, entry.Tuple, want)
		}
	}

	for rep := 0; rep < 24; rep++ {
		sub := rng.Fork(int64(rep))
		decouple := map[int]bool{}
		if rep%3 != 0 {
			decouple[sub.Intn(8)] = true
			decouple[sub.Intn(8)] = true
		}
		tr := synthTrace(sub, 30, 8, decouple)
		switch rep % 4 {
		case 1:
			tr = maskTicks(sub, tr, 0.1, rep%metrics.Count)
		case 2:
			// A NaN slipping past a nil mask must degrade both paths alike.
			tr.Rows[rep%metrics.Count][5] = math.NaN()
		case 3:
			// A mask that invalidates nothing is a clean window.
			tr = maskTicks(sub, tr, 0, -1)
		}
		got, err := sp.Violations(ctx, tr)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		want := denseReport(t, sp, ctx, tr)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rep %d: report %+v != dense reference %+v", rep, got, want)
		}
		if (rep%4 == 0 || rep%4 == 3) && got.Known != nil {
			t.Errorf("rep %d: clean window surfaced a known mask", rep)
		}
		d, err := sp.Diagnose(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Tuple, want.Tuple) || !reflect.DeepEqual(d.Known, want.Known) ||
			d.Coverage != want.Coverage || len(d.Hints) != len(want.Violated) {
			t.Errorf("rep %d: diagnosis %+v does not carry the dense verdict %+v", rep, d, want)
		}
	}

	st := totals(sp)
	if st.Sparse.Screened == 0 {
		t.Error("prescreen never certified a pair across the property windows")
	}
	if st.SigScanned == 0 {
		t.Error("signature scan counters never advanced")
	}
}

// TestSparseReportCacheReuse: diagnosing the same window twice must return
// the memoised report, and retraining (a new invariant set pointer) must
// invalidate it even though the fingerprint is unchanged.
func TestSparseReportCacheReuse(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 910)
	tr := synthTrace(stats.NewRNG(911), 30, 8, map[int]bool{2: true})
	before := totals(s).Cache
	v1, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Error("second diagnosis of an identical window did not return the cached report")
	}
	after := totals(s).Cache
	if after.Hits != before.Hits+1 {
		t.Errorf("cache hits %d -> %d, want one new hit", before.Hits, after.Hits)
	}

	// Retrain on the same windows: the selected pairs are unchanged, but the
	// set pointer is fresh and the cached report must not be served for it.
	runs, _ := normalRuns(910)
	if err := s.TrainInvariants(ctx, runs); err != nil {
		t.Fatal(err)
	}
	v3, err := s.Violations(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Error("report cached under the old invariant set survived retraining")
	}
	if !reflect.DeepEqual(v3, v1) {
		t.Errorf("recomputed report %+v differs from original %+v", v3, v1)
	}
}

// TestDiagnoseFingerprint: the report cache is keyed by the window's content
// alone — a second diagnosis of equal content in a different *Trace is a hit
// that adds no entry, a fresh window is a miss whose verdict equals the dense
// reference.
func TestDiagnoseFingerprint(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 920)
	rng := stats.NewRNG(921)
	tr1 := synthTrace(rng.Fork(1), 30, 8, map[int]bool{1: true})
	tr2 := synthTrace(rng.Fork(2), 30, 8, nil)

	d1, err := s.Diagnose(ctx, tr1)
	if err != nil {
		t.Fatal(err)
	}
	before := totals(s).Cache
	again, err := tr1.Slice(0, tr1.Len()) // same content, different trace
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Diagnose(ctx, again)
	if err != nil {
		t.Fatal(err)
	}
	if after := totals(s).Cache; after.Hits != before.Hits+1 || after.Misses != before.Misses || after.Entries != before.Entries {
		t.Errorf("rediagnosis of equal content was not a pure hit: %+v -> %+v", before, after)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("rediagnosis %+v != original %+v", d2, d1)
	}

	before = totals(s).Cache
	d3, err := s.Diagnose(ctx, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if after := totals(s).Cache; after.Misses != before.Misses+1 || after.Entries != before.Entries+1 {
		t.Errorf("fresh window was not a miss adding one entry: %+v -> %+v", before, after)
	}
	if want := denseReport(t, s, ctx, tr2); !reflect.DeepEqual(d3.Tuple, want.Tuple) {
		t.Errorf("diagnosis tuple %v != dense reference %v", d3.Tuple, want.Tuple)
	}
}
