package core

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"invarnetx/internal/arx"
	"invarnetx/internal/invariant"
	"invarnetx/internal/metrics"
	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

func TestFingerprintRows(t *testing.T) {
	a := [][]float64{{1, 2, 3}, {4, 5, 6}}
	b := [][]float64{{1, 2, 3}, {4, 5, 6}}
	if fingerprintWindow(a, nil) != fingerprintWindow(b, nil) {
		t.Error("identical windows must fingerprint identically")
	}
	c := [][]float64{{1, 2, 3}, {4, 5, 6.0000001}}
	if fingerprintWindow(a, nil) == fingerprintWindow(c, nil) {
		t.Error("a changed sample must change the fingerprint")
	}
	// Shape must matter, not just the flattened content.
	d := [][]float64{{1, 2}, {3, 4, 5, 6}}
	if fingerprintWindow(a, nil) == fingerprintWindow(d, nil) {
		t.Error("a reshaped window must change the fingerprint")
	}
}

// TestFingerprintGolden pins every FNV-1a fingerprint to the values the
// hand-rolled loops produced before they were folded into the fnv1a helper.
func TestFingerprintGolden(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6.5}, {-0.25, math.Inf(1), math.NaN()}}
	valid := [][]bool{{true, false, true}, {true, true, true}, {false, false, true}}
	long := make([]bool, 70) // crosses the 64-flag word boundary
	lrow := make([]float64, 70)
	for i := range long {
		long[i] = i%3 != 0
		lrow[i] = float64(i) / 7
	}
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"rows", fingerprintWindow(rows, nil), 0xc5008ccb8c93b586},
		{"rows+mask", fingerprintWindow(rows, valid), 0xe2ffdf921e669d45},
		{"70-tick mask", fingerprintWindow([][]float64{lrow}, [][]bool{long}), 0x42ff38732ac7f164},
		{"empty", fingerprintWindow(nil, nil), 0xa8c7f832281a39c5},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %#x, want %#x", c.name, c.got, c.want)
		}
	}
	s := New(DefaultConfig())
	for key, want := range map[Context]int{
		{}:                                      14,
		{Workload: "wordcount", IP: "10.0.0.2"}: 0,
		{Workload: "ab", IP: "c"}:               4,
		{Workload: "a", IP: "bc"}:               6,
		{Workload: "sort", IP: "10.0.0.2~10.0.0.3#reduce"}: 8,
	} {
		if got := s.shardFor(key); got != &s.shards[want] {
			t.Errorf("context %v no longer hashes to shard %d", key, want)
		}
	}
}

func TestAssocCacheHitsOnRetrain(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := New(Config{UseContext: true})
	rng := stats.NewRNG(700)
	var runs []*metrics.Trace
	for i := 0; i < 4; i++ {
		runs = append(runs, synthTrace(rng.Fork(int64(i)), 60, 8, nil))
	}
	if err := s.TrainInvariants(ctx, runs[:2]); err != nil {
		t.Fatal(err)
	}
	st := totals(s).Cache
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after first training: %+v, want 0 hits / 2 misses / 2 entries", st)
	}
	// Adding runs retrains the whole pool; the first two windows' memos must
	// now come from the cache.
	if err := s.TrainInvariants(ctx, runs[2:]); err != nil {
		t.Fatal(err)
	}
	st = totals(s).Cache
	if st.Hits != 2 || st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("after pooled retraining: %+v, want 2 hits / 4 misses / 4 entries", st)
	}
}

// TestTrainingScoresOnlyLivePairs pins the work of pair-major training. The
// reference is the dense fill it replaced: every window's full matrix, with
// the stopping rule replayed in pool order. A first training scores exactly
// the cells that rule needs (the dense fill scored all 325 per window),
// re-training the same pool scores none, and one added window costs one
// score per pair of the previous set; every set is the dense Select's. The
// per-pair arm counts a measure's calls (any Assoc but the stock MIC skips
// the batch scorer); the batch arm reads ProfileStats.Training.
func TestTrainingScoresOnlyLivePairs(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	rng := stats.NewRNG(740)
	var runs []*metrics.Trace
	for i := 0; i < 9; i++ {
		runs = append(runs, synthTrace(rng.Fork(int64(i)), 30, 8, nil))
	}
	mats := make([]*invariant.Matrix, len(runs))
	for r, tr := range runs {
		var err error
		if mats[r], err = invariant.ComputeMaskedMatrixScored(tr.Rows, nil, mic.MIC, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	m := metrics.Count
	need := 0 // pool-order exit over the first 8 windows
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, a := range mats[:8] {
				need++
				lo, hi = min(lo, a.Get(i, j)), max(hi, a.Get(i, j))
				if hi-lo >= invariant.DefaultTau {
					break
				}
			}
		}
	}
	if all := 8 * m * (m - 1) / 2; need >= all {
		t.Fatalf("reference needs %d of %d scores: nothing to skip, the pin is vacuous", need, all)
	}

	var calls atomic.Int64
	counting := func(x, y []float64) float64 { calls.Add(1); return mic.MIC(x, y) }
	for _, arm := range []struct {
		name  string
		cfg   Config
		count func(s *System) int64
	}{
		{"per-pair", Config{UseContext: true, Assoc: counting}, func(*System) int64 { return calls.Load() }},
		{"batch", Config{UseContext: true}, func(s *System) int64 { return int64(totals(s).Training.Scored) }},
	} {
		s := New(arm.cfg)
		step := func(what string, add []*metrics.Trace, wantScored, pool int) *invariant.Set {
			t.Helper()
			before := arm.count(s)
			if err := s.TrainInvariants(ctx, add); err != nil {
				t.Fatal(err)
			}
			if got := arm.count(s) - before; got != int64(wantScored) {
				t.Fatalf("%s, %s: scored %d pair-window cells, want %d", arm.name, what, got, wantScored)
			}
			set, err := s.Invariants(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := invariant.Select(mats[:pool], invariant.DefaultTau)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(set.SortedPairs(), want.SortedPairs()) || !reflect.DeepEqual(set.Base, want.Base) {
				t.Fatalf("%s, %s: trained set differs from the dense Select", arm.name, what)
			}
			return set
		}
		step("first training", runs[:8], need, 8)
		set := step("same pool again", runs[:8], 0, 8)
		step("one window added", runs[8:], set.Len(), 9)
		if tr, pairs := totals(s).Training, m*(m-1)/2; tr.Scored+tr.Memo+tr.Skipped != pairs*(8+8+9) {
			t.Fatalf("%s: training stats %+v do not cover %d pairs over 25 pooled windows", arm.name, tr, pairs)
		}
	}
}

// TestConcurrentRetrainSharesMemos: trainings racing on one profile read the
// same cached memos while each stores its own fresh copies (run with -race).
// Whatever order they land in, a final training of the pool selects the
// dense Select's set.
func TestConcurrentRetrainSharesMemos(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := New(Config{UseContext: true})
	rng := stats.NewRNG(750)
	var runs []*metrics.Trace
	mats := make([]*invariant.Matrix, 8)
	for i := range mats {
		runs = append(runs, synthTrace(rng.Fork(int64(i)), 30, 8, nil))
		var err error
		if mats[i], err = invariant.ComputeMaskedMatrixScored(runs[i].Rows, nil, mic.MIC, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TrainInvariants(ctx, runs[:4]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = s.TrainInvariants(ctx, runs[4+g:5+g])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.TrainInvariants(ctx, nil); err != nil {
		t.Fatal(err)
	}
	got, err := s.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := invariant.Select(mats, invariant.DefaultTau)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SortedPairs(), want.SortedPairs()) || !reflect.DeepEqual(got.Base, want.Base) {
		t.Fatal("pool trained under concurrent retraining differs from the dense Select")
	}
}

// TestCrossTrainingScoresSpanningPairsOnly: a cross profile never scores a
// within-node pair of its joint space — 11×11 spanning pairs per window, not
// all 231.
func TestCrossTrainingScoresSpanningPairsOnly(t *testing.T) {
	s := New(DefaultConfig())
	key := NewCrossKey("sort", "10.0.0.2", "10.0.0.3", "shuffle")
	var joints []*metrics.Trace
	for seed := int64(960); seed < 963; seed++ {
		j, err := metrics.JoinTraces(synthTrace(stats.NewRNG(seed), 40, 8, nil), synthTrace(stats.NewRNG(seed), 40, 8, nil), CrossMetricIdx)
		if err != nil {
			t.Fatal(err)
		}
		joints = append(joints, j)
	}
	if err := s.TrainInvariants(key.Context(), joints); err != nil {
		t.Fatal(err)
	}
	k := len(CrossMetricIdx)
	if tr := totals(s).Training; tr.Scored+tr.Memo+tr.Skipped != k*k*len(joints) || tr.Scored == 0 {
		t.Fatalf("cross training stats %+v, want %d spanning pair-window cells", tr, k*k*len(joints))
	}
	set, err := s.Invariants(key.Context())
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range set.SortedPairs() {
		if pr.I >= k || pr.J < k {
			t.Errorf("within-node pair %v selected on a cross profile", pr)
		}
	}
}

func TestAssocCacheInvalidatesOnWindowChange(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, Config{UseContext: true}, ctx, 701)
	before := totals(s).Cache
	ab := synthTrace(stats.NewRNG(702), 40, 8, map[int]bool{0: true})
	if _, err := s.Violations(ctx, ab); err != nil {
		t.Fatal(err)
	}
	st := totals(s).Cache
	if st.Misses != before.Misses+1 {
		t.Fatalf("fresh abnormal window should miss: before %+v, after %+v", before, st)
	}
	// The same window again is a hit...
	if _, err := s.Violations(ctx, ab); err != nil {
		t.Fatal(err)
	}
	if got := totals(s).Cache; got.Hits != st.Hits+1 {
		t.Fatalf("repeat window should hit: %+v -> %+v", st, got)
	}
	// ...until any sample changes.
	ab.Rows[3][7] += 0.5
	if _, err := s.Violations(ctx, ab); err != nil {
		t.Fatal(err)
	}
	if got := totals(s).Cache; got.Misses != st.Misses+1 {
		t.Fatalf("mutated window should miss: %+v -> %+v", st, got)
	}
}

func TestAssocCacheKeysByContext(t *testing.T) {
	s := New(Config{UseContext: true})
	ctxA := Context{Workload: "wordcount", IP: "10.0.0.2"}
	ctxB := Context{Workload: "sort", IP: "10.0.0.3"}
	tr := synthTrace(stats.NewRNG(703), 60, 8, nil)
	runs := []*metrics.Trace{tr, synthTrace(stats.NewRNG(704), 60, 8, nil)}
	if err := s.TrainInvariants(ctxA, runs); err != nil {
		t.Fatal(err)
	}
	// Identical windows under a different context must not share entries.
	if err := s.TrainInvariants(ctxB, runs); err != nil {
		t.Fatal(err)
	}
	st := totals(s).Cache
	if st.Hits != 0 || st.Entries != 4 {
		t.Fatalf("contexts must not share cache entries: %+v", st)
	}
}

func TestAssocCacheDisabledAndBounded(t *testing.T) {
	off := New(Config{AssocCacheSize: -1})
	ctx := Context{Workload: "w", IP: "ip"}
	if off.Profile(ctx).cache != nil {
		t.Error("negative AssocCacheSize should disable the cache")
	}
	if err := off.TrainInvariants(ctx, []*metrics.Trace{
		synthTrace(stats.NewRNG(705), 60, 8, nil),
		synthTrace(stats.NewRNG(706), 60, 8, nil),
	}); err != nil {
		t.Fatal(err)
	}
	if st := totals(off).Cache; st != (CacheStats{}) {
		t.Errorf("disabled cache stats = %+v, want zero", st)
	}

	small := newAssocCache(2)
	for i := 0; i < 5; i++ {
		small.put(cacheKey{fp: uint64(i)}, cacheEntry{mat: invariant.NewMatrix(2)})
	}
	if st := small.stats(); st.Entries != 2 {
		t.Errorf("bounded cache holds %d entries, want 2", st.Entries)
	}
	// Oldest evicted first: keys 0..2 gone, 3 and 4 present.
	if _, ok := small.get(cacheKey{fp: 0}); ok {
		t.Error("oldest entry should have been evicted")
	}
	if _, ok := small.get(cacheKey{fp: 4}); !ok {
		t.Error("newest entry should survive eviction")
	}
}

// TestStockMICDecision: New prepares windows in batch only for the stock
// mic.MIC; any other measure — a wrapped MIC included — scores per pair.
func TestStockMICDecision(t *testing.T) {
	wrapped := func(x, y []float64) float64 { return mic.MIC(x, y) }
	for _, tc := range []struct {
		name  string
		assoc invariant.AssociationFunc
		want  bool
	}{
		{"nil defaults to stock MIC", nil, true},
		{"explicit mic.MIC", mic.MIC, true},
		{"arx.Association", arx.Association, false},
		{"wrapped MIC", wrapped, false},
	} {
		s := New(Config{Assoc: tc.assoc})
		if s.batchMIC != tc.want {
			t.Errorf("%s: batchMIC = %v, want %v", tc.name, s.batchMIC, tc.want)
		}
		// The decision is what Profile.scorer acts on: a batch scorer for a
		// well-formed window iff the measure is the stock MIC.
		rows := synthTrace(stats.NewRNG(5), 30, 4, nil).Rows
		if got := s.Profile(Context{}).scorer(rows) != nil; got != tc.want {
			t.Errorf("%s: window scorer present = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBatchPathMatchesGeneric(t *testing.T) {
	// The batch-scored pipeline must produce the same invariants and tuples
	// as the per-pair Assoc pipeline.
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	batched := trainSystem(t, Config{UseContext: true}, ctx, 707)
	plain := trainSystem(t, Config{UseContext: true, AssocCacheSize: -1, Assoc: func(x, y []float64) float64 { return mic.MIC(x, y) }}, ctx, 707)
	sb, err := batched.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := plain.Invariants(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Len() != sp.Len() {
		t.Fatalf("batched selected %d invariants, per-pair %d", sb.Len(), sp.Len())
	}
	for _, p := range sb.SortedPairs() {
		if sb.Base[p] != sp.Base[p] {
			t.Errorf("baseline for %v: batched %v, per-pair %v", p, sb.Base[p], sp.Base[p])
		}
	}
}
