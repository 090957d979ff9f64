package core

import (
	"math"
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
// fingerprintSet is persisted in lifecycle-*.xml: a drifted value would make
// every existing store restore with fresh edge state.
func TestFingerprintGolden(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6.5}, {-0.25, math.Inf(1), math.NaN()}}
	valid := [][]bool{{true, false, true}, {true, true, true}, {false, false, true}}
	long := make([]bool, 70) // crosses the 64-flag word boundary
	lrow := make([]float64, 70)
	for i := range long {
		long[i] = i%3 != 0
		lrow[i] = float64(i) / 7
	}
	set := invariant.NewSet(4, map[invariant.Pair]float64{{I: 0, J: 1}: 0.9, {I: 1, J: 3}: 0.425, {I: 2, J: 3}: 0})
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"rows", fingerprintWindow(rows, nil), 0xc5008ccb8c93b586},
		{"rows+mask", fingerprintWindow(rows, valid), 0xe2ffdf921e669d45},
		{"70-tick mask", fingerprintWindow([][]float64{lrow}, [][]bool{long}), 0x42ff38732ac7f164},
		{"empty", fingerprintWindow(nil, nil), 0xa8c7f832281a39c5},
		{"set", fingerprintSet(set), 0x530d7d624162ead7},
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
	// Adding runs recomputes the whole pool; the first two windows must now
	// come from the cache.
	if err := s.TrainInvariants(ctx, runs[2:]); err != nil {
		t.Fatal(err)
	}
	st = totals(s).Cache
	if st.Hits != 2 || st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("after pooled retraining: %+v, want 2 hits / 4 misses / 4 entries", st)
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
