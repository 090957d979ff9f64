package core

import (
	"testing"

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

// crossRows filters the snapshot down to the spatio-temporal profiles.
func crossRows(s *System) []ProfileStats {
	var out []ProfileStats
	for _, ps := range s.ProfileStats() {
		if _, ok := ParseCrossContext(ps.Context); ok {
			out = append(out, ps)
		}
	}
	return out
}

// TestProfileStatsReducerEqualsParts pins the one-walk/one-reducer rule: on a
// system with three intra-node profiles, one cross profile and the lifecycle
// on, after training plus clean, degraded and cached diagnoses, reducing
// ProfileStats() with Add equals — field by field — the sums (max for
// generation and shadow age) of the per-profile accessors, which is what the
// per-counter System aggregators this snapshot replaced used to return.
func TestProfileStatsReducerEqualsParts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lifecycle = fastLifecycle()
	cfg.SigMinScore = 0.05 // the floor prunes: early exits move too
	s := New(cfg)

	fault := map[int]bool{0: true, 1: true}
	ctxs := []Context{
		{Workload: "wordcount", IP: "10.0.0.2"},
		{Workload: "wordcount", IP: "10.0.0.3"},
		{Workload: "sort", IP: "10.0.0.2"},
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

	// One cross profile over joint windows of two nodes that share a latent.
	key := NewCrossKey("sort", "10.0.0.2", "10.0.0.3", "shuffle")
	joint := func(seed int64, decouple map[int]bool) *metrics.Trace {
		j, err := metrics.JoinTraces(synthTrace(stats.NewRNG(seed), 40, 8, decouple), synthTrace(stats.NewRNG(seed), 40, 8, nil), CrossMetricIdx)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if err := s.TrainInvariants(key.Context(), []*metrics.Trace{joint(950, nil), joint(951, nil), joint(952, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(key.Context(), "xlink@10.0.0.3", joint(953, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Diagnose(key.Context(), joint(954, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}

	// Expected totals from the per-profile accessors, never from the reducer.
	var want, wantCross ProfileStats
	ncross := 0
	sum := func(w *ProfileStats, p *Profile) {
		set, err := p.Invariants()
		if err != nil {
			t.Fatal(err)
		}
		w.Invariants += set.Len()
		w.Signatures += p.SignatureCount()
		w.CPIRuns += p.cpiPool.size()
		w.Windows += p.windowPool.size()
		c := p.CacheStats()
		w.Cache.Hits += c.Hits
		w.Cache.Misses += c.Misses
		w.Cache.Entries += c.Entries
		w.Training.Scored += p.training.Scored
		w.Training.Memo += p.training.Memo
		w.Training.Skipped += p.training.Skipped
		sp := p.SparseStats()
		w.Sparse.Screened += sp.Screened
		w.Sparse.Exact += sp.Exact
		w.Sparse.Skipped += sp.Skipped
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
		if p.cross != nil {
			sum(&wantCross, p)
			ncross++
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
	var gotCross ProfileStats
	rows := crossRows(s)
	for _, ps := range rows {
		gotCross.Add(ps)
	}
	if len(rows) != ncross || ncross != 1 || gotCross != wantCross {
		t.Errorf("cross rows %d (want %d)\n got %+v\nwant %+v", len(rows), ncross, gotCross, wantCross)
	}

	// The comparison must not be vacuous: every kind of counter moved.
	switch {
	case want.Cache.Hits == 0, want.Cache.Misses == 0, want.Cache.Entries == 0:
		t.Errorf("cache counters idle: %+v", want.Cache)
	case want.Training.Scored == 0, want.Training.Skipped == 0:
		t.Errorf("training counters idle: %+v", want.Training)
	case want.Sparse.Screened == 0, want.Sparse.Exact == 0, want.Sparse.Skipped == 0:
		t.Errorf("sparse tiers idle: %+v", want.Sparse)
	case want.SigScanned == 0:
		t.Error("signature retrieval idle: nothing scanned")
	case want.Signatures < len(snap), want.Lifecycle.Observed == 0, want.Lifecycle.Generation == 0:
		t.Errorf("signatures %d, lifecycle %+v", want.Signatures, want.Lifecycle)
	case wantCross.Invariants == 0 || wantCross.Invariants != wantCross.Lifecycle.Edges:
		t.Errorf("cross profile trained %d edges, lifecycle tracks %d", wantCross.Invariants, wantCross.Lifecycle.Edges)
	}
}
