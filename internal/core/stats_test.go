package core

import (
	"testing"

	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

// totals reduces the system's one profile snapshot with the one reducer —
// what the serving layer and invarctl do for every system-wide figure.
func totals(s *System) ProfileStats {
	var t ProfileStats
	for _, ps := range s.ProfileStats() {
		t.Add(ps)
	}
	return t
}

// narrowTrace keeps the first k metric rows of tr: a window of a width
// other than the collector's, as a caller stacking its own rows trains.
func narrowTrace(tr *metrics.Trace, k int) *metrics.Trace {
	return &metrics.Trace{Rows: tr.Rows[:k], CPI: tr.CPI, Ticks: tr.Ticks}
}

// halves keeps the pairs that span the two halves of a 2k-metric window.
func halves(k int) func(invariant.Pair) bool {
	return func(pr invariant.Pair) bool { return pr.I < k && pr.J >= k }
}

// TestProfileStatsReducerEqualsParts pins the one-walk/one-reducer rule: on a
// system with three intra-node profiles, one narrow profile trained under a
// pair predicate and the lifecycle on, after training plus clean, degraded and cached diagnoses, reducing
// ProfileStats() with Add equals — field by field — the sums (max for
// generation and shadow age) of the per-profile counters, which is what the
// per-counter System aggregators this snapshot replaced used to return.
func TestProfileStatsReducerEqualsParts(t *testing.T) {
	useTuning(t, fastLifecycle)
	cfg := DefaultConfig()
	cfg.Lifecycle = true
	s := New(cfg)

	fault := map[int]bool{0: true, 1: true}
	ctxs := []Context{
		{Workload: "wordcount", IP: "10.0.0.2"},
		{Workload: "wordcount", IP: "10.0.0.3"},
		{Workload: "sort", IP: "10.0.0.2"},
	}
	narrowCtx := Context{Workload: "sort", IP: "10.0.0.2~10.0.0.3#shuffle"}
	for _, ctx := range append(ctxs, narrowCtx) {
		s.Profile(ctx).sigs.MinScore = 0.05 // a floor filters matches, never the scan counters
	}
	for i, ctx := range ctxs {
		rng := stats.NewRNG(int64(900 + i))
		var runs []*metrics.Trace
		var cpis [][]float64
		for r := 0; r < 3+i; r++ {
			tr := synthTrace(rng.Fork(int64(r)), traceLen, 8, nil)
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatal(err)
		}
		if err := s.TrainInvariants(ctx, runs); err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= i; k++ {
			if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng.Fork(int64(50+k)), 40, 8, fault)); err != nil {
				t.Fatal(err)
			}
		}
		clean := synthTrace(rng.Fork(60), 40, 8, fault)
		degraded := dropMetricTicks(synthTrace(rng.Fork(61), 40, 8, fault), []int{2, 3}, 0, 40)
		for _, win := range []*metrics.Trace{clean, degraded, clean} { // the repeat is a report-cache hit
			if _, err := s.Diagnose(ctx, win); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One narrow profile: 12-metric windows, only the pairs spanning their
	// two halves trained.
	narrow := func(seed int64, decouple map[int]bool) *metrics.Trace {
		return narrowTrace(synthTrace(stats.NewRNG(seed), 40, 8, decouple), 12)
	}
	if err := s.Profile(narrowCtx).TrainInvariants([]*metrics.Trace{narrow(950, nil), narrow(951, nil), narrow(952, nil)}, halves(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(narrowCtx, "fault-a", narrow(953, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diagnose(narrowCtx, narrow(954, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}

	// Expected totals from the per-profile counters, never from the reducer.
	var want, wantNarrow ProfileStats
	sum := func(w *ProfileStats, p *Profile) {
		set, err := p.Invariants()
		if err != nil {
			t.Fatal(err)
		}
		w.Invariants += set.Len()
		w.Signatures += p.SignatureCount()
		c := p.cache.stats()
		w.Cache.Hits += c.Hits
		w.Cache.Misses += c.Misses
		w.Cache.Entries += c.Entries
		w.Training.Scored += p.training.Scored
		w.Training.Skipped += p.training.Skipped
		w.Sparse.Exact += p.sparseExact.Load()
		w.Sparse.Skipped += p.sparseSkipped.Load()
		scanned, early := p.sigs.ScanStats()
		w.SigScanned += scanned
		w.SigEarlyExits += early
		lc := p.LifecycleStats()
		w.Lifecycle.Enabled = true
		w.Lifecycle.Edges += lc.Edges
		w.Lifecycle.Quarantined += lc.Quarantined
		w.Lifecycle.Observed += lc.Observed
		w.Lifecycle.Promotions += lc.Promotions
		w.Lifecycle.Rollbacks += lc.Rollbacks
		if lc.Generation > w.Lifecycle.Generation {
			w.Lifecycle.Generation = lc.Generation
		}
		if lc.ShadowAge > w.Lifecycle.ShadowAge {
			w.Lifecycle.ShadowAge = lc.ShadowAge
		}
	}
	for _, p := range s.Profiles() {
		sum(&want, p)
		if p.key == narrowCtx {
			sum(&wantNarrow, p)
		}
	}

	snap := s.ProfileStats()
	if len(snap) != len(ctxs)+1 {
		t.Fatalf("snapshot has %d rows, want %d", len(snap), len(ctxs)+1)
	}
	for i, ps := range snap {
		if i > 0 && !(snap[i-1].Context.Workload < ps.Context.Workload ||
			(snap[i-1].Context.Workload == ps.Context.Workload && snap[i-1].Context.IP < ps.Context.IP)) {
			t.Errorf("snapshot not context-sorted at row %d: %v after %v", i, ps.Context, snap[i-1].Context)
		}
	}
	if got := totals(s); got != want {
		t.Errorf("reduced snapshot\n got %+v\nwant %+v", got, want)
	}
	var gotNarrow ProfileStats
	for _, ps := range snap {
		if ps.Context == narrowCtx {
			gotNarrow.Add(ps)
		}
	}
	if gotNarrow != wantNarrow {
		t.Errorf("narrow row\n got %+v\nwant %+v", gotNarrow, wantNarrow)
	}

	// The comparison must not be vacuous: every kind of counter moved.
	switch {
	case want.Cache.Hits == 0, want.Cache.Misses == 0, want.Cache.Entries == 0:
		t.Errorf("cache counters idle: %+v", want.Cache)
	case want.Training.Scored == 0, want.Training.Skipped == 0:
		t.Errorf("training counters idle: %+v", want.Training)
	case want.Sparse.Exact == 0, want.Sparse.Skipped == 0:
		t.Errorf("sparse counters idle: %+v", want.Sparse)
	case want.SigScanned == 0:
		t.Error("signature retrieval idle: nothing scanned")
	case want.Signatures < len(snap), want.Lifecycle.Observed == 0, want.Lifecycle.Generation == 0:
		t.Errorf("signatures %d, lifecycle %+v", want.Signatures, want.Lifecycle)
	case wantNarrow.Invariants == 0 || wantNarrow.Invariants != wantNarrow.Lifecycle.Edges:
		t.Errorf("narrow profile trained %d edges, lifecycle tracks %d", wantNarrow.Invariants, wantNarrow.Lifecycle.Edges)
	case wantNarrow.Training.Scored+wantNarrow.Training.Skipped != 6*6*3:
		t.Errorf("narrow training %+v, want the 36 spanning pairs of 3 windows", wantNarrow.Training)
	}
}
