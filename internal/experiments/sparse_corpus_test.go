package experiments

import (
	"math"
	"reflect"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/invariant"
	"invarnetx/internal/signature"
	"invarnetx/internal/workload"
)

// TestSparseCorpusEquivalence: across the simulator corpus — every batch
// fault kind injected into a wordcount run — the tiered diagnosis path
// (batch scorer, prescreen, trained edges only) must produce exactly the
// violation verdicts of the dense reference: the full association matrix
// through the per-pair measure, each trained pair judged with
// invariant.Violated (an unknown cell is unknown, not violated). This is
// the end-to-end guarantee behind the prescreen: its certificate is
// one-sided, so no window in the corpus may flip a verdict — neither in a
// stored signature nor in a diagnosis. Each held-out window's ranked causes
// are likewise held to their reference: one best match per problem out of
// the full ranked match list, cut to core's five causes.
func TestSparseCorpusEquivalence(t *testing.T) {
	opts := tinyOptions()
	r := NewRunner(opts)
	sys, _, err := r.TrainSystem(workload.Wordcount)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	dense := func(ctx core.Context, rows [][]float64, valid [][]bool) (tuple, known []bool) {
		t.Helper()
		set, err := sys.Invariants(ctx)
		if err != nil {
			t.Fatal(err)
		}
		mat, err := invariant.ComputeMaskedMatrixScored(rows, valid, cfg.Assoc, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pairs := set.SortedPairs()
		tuple, known = make([]bool, len(pairs)), make([]bool, len(pairs))
		for k, p := range pairs {
			if known[k] = mat.Known(p.I, p.J); known[k] {
				tuple[k] = invariant.Violated(set.Base[p], mat.Get(p.I, p.J), cfg.Epsilon)
			}
		}
		for i, r := range rows {
			for tick, v := range r {
				if math.IsNaN(v) || math.IsInf(v, 0) || (valid != nil && !valid[i][tick]) {
					return tuple, known // a degraded window carries its known flags
				}
			}
		}
		return tuple, nil
	}

	for _, kind := range FaultKindsFor(workload.Wordcount) {
		res, err := r.Run(workload.Wordcount, kind, 0)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		tr := res.TargetTrace()
		if tr == nil {
			t.Fatalf("%s: no target trace", kind)
		}
		win, err := AbnormalWindow(tr, opts.FaultStart, opts.FaultTicks)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ctx := core.Context{Workload: string(workload.Wordcount), IP: res.TargetIP}
		entry, _, err := sys.BuildSignatureEntry(ctx, string(kind), win)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if want, _ := dense(ctx, win.Rows, win.Valid); !reflect.DeepEqual([]bool(entry.Tuple), want) {
			t.Errorf("%s: stored signature diverged from the dense tuple:\nsparse %v\ndense  %v", kind, entry.Tuple, want)
		}

		probe, err := r.Run(workload.Wordcount, kind, 1)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		pwin, err := AbnormalWindow(probe.TargetTrace(), opts.FaultStart, opts.FaultTicks)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		pctx := core.Context{Workload: string(workload.Wordcount), IP: probe.TargetIP}
		d, err := sys.Diagnose(pctx, pwin)
		if err != nil {
			t.Fatalf("%s: diagnose: %v", kind, err)
		}
		wantTuple, wantKnown := dense(pctx, pwin.Rows, pwin.Valid)
		if !reflect.DeepEqual([]bool(d.Tuple), wantTuple) || !reflect.DeepEqual(d.Known, wantKnown) {
			t.Errorf("%s: diagnosis diverged from the dense verdict:\nsparse %v %v\ndense  %v %v",
				kind, d.Tuple, d.Known, wantTuple, wantKnown)
		}
		matches, err := sys.Profile(pctx).SignatureSnapshot().MatchMasked(d.Tuple, d.Known, pctx.IP, pctx.Workload, cfg.Similarity, 0)
		if err != nil {
			t.Fatalf("%s: reference match: %v", kind, err)
		}
		wantCauses := signature.BestProblem(matches)
		if len(wantCauses) > 5 { // core ranks at most five causes
			wantCauses = wantCauses[:5]
		}
		if d.Coverage < 1 {
			for i := range wantCauses {
				wantCauses[i].Score *= d.Coverage
			}
		}
		if !reflect.DeepEqual(d.Causes, wantCauses) {
			t.Errorf("%s: ranked causes diverged from the reference composition:\n got %+v\nwant %+v", kind, d.Causes, wantCauses)
		}
	}

	var total core.ProfileStats
	for _, ps := range sys.ProfileStats() {
		total.Add(ps)
	}
	if st := total.Sparse; st.Screened+st.Exact == 0 {
		t.Error("no edges evaluated across the corpus")
	}
}
