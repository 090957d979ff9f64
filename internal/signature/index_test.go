package signature

import (
	"reflect"
	"testing"

	"invarnetx/internal/stats"
)

// TestIndexStructure: Add must bucket entries by (workload, ip, tuple
// length), post each set coordinate, and group all-zero tuples separately.
func TestIndexStructure(t *testing.T) {
	db := &DB{MinScore: 0.3}
	tup := func(s string) Tuple {
		tu, err := ParseTuple(s)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	db.Add(Entry{Tuple: tup("0101"), Problem: "a", IP: "n1", Workload: "wc"})
	db.Add(Entry{Tuple: tup("0000"), Problem: "b", IP: "n1", Workload: "wc"})
	db.Add(Entry{Tuple: tup("1100"), Problem: "c", IP: "n1", Workload: "wc"})
	db.Add(Entry{Tuple: tup("011"), Problem: "d", IP: "n1", Workload: "wc"})  // stale length
	db.Add(Entry{Tuple: tup("0101"), Problem: "a", IP: "n2", Workload: "wc"}) // other scope

	st := db.IndexStats()
	if st.Scopes != 2 || st.Buckets != 3 || st.Indexed != 5 || st.ZeroEntries != 1 {
		t.Fatalf("IndexStats = %+v, want 2 scopes, 3 buckets, 5 indexed, 1 zero", st)
	}

	sp := db.scopes[scopeKey{workload: "wc", ip: "n1"}]
	if sp == nil || sp.total != 4 {
		t.Fatalf("scope (wc, n1) total = %+v, want 4", sp)
	}
	b := sp.byLen[4]
	if b == nil {
		t.Fatal("missing length-4 bucket")
	}
	// The flat columns: one word per 4-coordinate tuple (LSB-first), its
	// population count, its interned problem and its global index.
	if b.stride != 1 || !reflect.DeepEqual(b.words, []uint64{0b1010, 0, 0b0011}) {
		t.Errorf("bucket words = %b at stride %d, want [1010 0 11] at 1", b.words, b.stride)
	}
	if !reflect.DeepEqual(b.ones, []int32{2, 0, 2}) {
		t.Errorf("bucket ones = %v, want [2 0 2]", b.ones)
	}
	if !reflect.DeepEqual(b.probs, []int32{0, 1, 2}) || !reflect.DeepEqual(db.problems, []string{"a", "b", "c", "d"}) {
		t.Errorf("bucket problem ids = %v of %v, want [0 1 2] of [a b c d]", b.probs, db.problems)
	}
	if !reflect.DeepEqual(b.ids, []int32{0, 1, 2}) {
		t.Errorf("bucket ids = %v, want [0 1 2]", b.ids)
	}
	if !reflect.DeepEqual(b.zeros, []int32{1}) {
		t.Errorf("bucket zeros = %v, want [1]", b.zeros)
	}
	// Bitmaps hold bucket-local positions as set bits: coordinate 1 is set
	// by the entries at local positions 0 (0101) and 2 (1100); coordinate 3
	// only by position 0; coordinate 2 by nothing.
	wantBitmaps := [][]uint64{{1 << 2}, {0b101}, nil, {1}}
	if !reflect.DeepEqual(b.bitmaps, wantBitmaps) {
		t.Errorf("bitmaps = %v, want %v", b.bitmaps, wantBitmaps)
	}
	// The other scope's entry is global index 4 at local position 0.
	if o := db.scopes[scopeKey{workload: "wc", ip: "n2"}].byLen[4]; !reflect.DeepEqual(o.ids, []int32{4}) || db.order[4] != (entryRef{b: o, pos: 0}) {
		t.Errorf("entry 4 located at %+v, bucket ids %v", db.order[4], o.ids)
	}
}

// TestIndexZeroQueryGroup: an all-zero query under MinScore > 0 must resolve
// from the zero-tuple group alone — scoring exactly the all-zero entries.
func TestIndexZeroQueryGroup(t *testing.T) {
	rng := stats.NewRNG(2310)
	db := &DB{MinScore: 0.5}
	for i := 0; i < 10; i++ {
		db.Add(Entry{Tuple: randomTuple(rng, 32, 0.3), Problem: "busy", IP: "n", Workload: "w"})
	}
	db.Add(Entry{Tuple: make(Tuple, 32), Problem: "healthy", IP: "n", Workload: "w"})
	got, err := db.Match(make(Tuple, 32), "n", "w", Jaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Problem != "healthy" || got[0].Score != 1 {
		t.Fatalf("zero query matches = %+v, want the single healthy signature at 1", got)
	}
	st := db.IndexStats()
	if st.IndexQueries != 1 || st.Candidates != 1 {
		t.Errorf("counters = %+v, want 1 index query scoring 1 candidate", st)
	}
}

// TestIndexCounters: index-path and scan-path queries must advance their
// respective counters, and HitRate must reflect the mix.
func TestIndexCounters(t *testing.T) {
	rng := stats.NewRNG(2311)
	db := &DB{MinScore: 0.3}
	for i := 0; i < 20; i++ {
		db.Add(Entry{Tuple: randomTuple(rng, 48, 0.2), Problem: "p", IP: "n", Workload: "w"})
	}
	q := randomTuple(rng, 48, 0.2)
	if _, err := db.Match(q, "n", "w", Jaccard, 3); err != nil && err != ErrEmpty {
		t.Fatal(err)
	}
	if _, err := db.Match(q, "n", "w", Hamming, 3); err != nil {
		t.Fatal(err) // Hamming falls back to the bucket scan
	}
	mask := []bool(randomTuple(rng, 48, 0.9))
	if _, err := db.MatchMasked(q, mask, "n", "w", Jaccard, 3); err != nil {
		t.Fatal(err) // masked windows fall back too
	}
	st := db.IndexStats()
	if st.IndexQueries != 1 || st.ScanQueries != 2 {
		t.Fatalf("counters = %+v, want 1 index / 2 scan queries", st)
	}
	if hr := st.HitRate(); hr <= 0.32 || hr >= 0.34 {
		t.Errorf("hit rate %v, want 1/3", hr)
	}
	var agg IndexStats
	agg.Add(st)
	agg.Add(st)
	if agg.IndexQueries != 2*st.IndexQueries || agg.Indexed != 2*st.Indexed {
		t.Errorf("Add aggregation broken: %+v from %+v", agg, st)
	}
}

// TestCloneCarriesIndex: a clone must answer index-path queries identically
// to its source while staying fully independent of later source mutations.
func TestCloneCarriesIndex(t *testing.T) {
	rng := stats.NewRNG(2313)
	db := &DB{MinScore: 0.3}
	for i := 0; i < 15; i++ {
		db.Add(Entry{Tuple: randomTuple(rng, 40, 0.25), Problem: "p", IP: "n", Workload: "w"})
	}
	q := randomTuple(rng, 40, 0.25)
	clone := db.Clone()
	want, wantErr := db.Match(q, "n", "w", Jaccard, 5)
	got, gotErr := clone.Match(q, "n", "w", Jaccard, 5)
	if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("clone match %+v (%v) != source %+v (%v)", got, gotErr, want, wantErr)
	}
	db.Add(Entry{Tuple: q, Problem: "new", IP: "n", Workload: "w"})
	after, err := clone.Match(q, "n", "w", Jaccard, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("clone drifted after source mutation: %+v != %+v", after, want)
	}
}

// TestEntriesDeepCopy: mutating the slice Entries returns must never reach
// the stored signatures or the index built over them.
func TestEntriesDeepCopy(t *testing.T) {
	db := &DB{MinScore: 0.3}
	tu, _ := ParseTuple("0110")
	db.Add(Entry{Tuple: tu, Problem: "p", IP: "n", Workload: "w"})
	out := db.Entries()
	out[0].Tuple[1] = false
	out[0].Tuple[3] = true
	got, err := db.Match(Tuple{false, true, true, false}, "n", "w", Jaccard, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Score != 1 || got[0].Tuple.String() != "0110" {
		t.Errorf("stored signature corrupted through Entries(): %+v", got)
	}
}

// TestMaskLengthValidatedOnEmptyScope: a bad mask must be reported even when
// the scope matches zero entries (historically the per-entry check was
// silently skipped).
func TestMaskLengthValidatedOnEmptyScope(t *testing.T) {
	db := &DB{}
	if _, err := db.MatchMasked(make(Tuple, 8), make([]bool, 5), "nowhere", "none", Jaccard, 0); err == nil {
		t.Fatal("mask length mismatch unreported on empty scope")
	}
}
