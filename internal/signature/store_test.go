package signature

import (
	"reflect"
	"testing"

	"invarnetx/internal/stats"
)

// TestCloneAnswersAndDedupsLikeSource: a clone must answer filtered queries
// and dedup a repeated Merge exactly like its source, while staying fully
// independent of later source mutations.
func TestCloneAnswersAndDedupsLikeSource(t *testing.T) {
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
	for _, e := range db.Entries() {
		if clone.Merge(e) {
			t.Fatalf("clone re-stored %s %v, which its source holds", e.Problem, e.Tuple)
		}
	}
	db.Add(Entry{Tuple: q, Problem: "new", IP: "n", Workload: "w"})
	after, err := clone.Match(q, "n", "w", Jaccard, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("clone drifted after source mutation: %+v != %+v", after, want)
	}
	if !clone.Merge(Entry{Tuple: q, Problem: "new", IP: "n", Workload: "w"}) {
		t.Error("clone refused an entry only its source holds")
	}
}

// TestEntriesDeepCopy: mutating the slice Entries returns must never reach
// the stored signatures.
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
