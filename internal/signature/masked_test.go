package signature

import (
	"math"
	"testing"
)

func TestMaskedSimilarityRestricts(t *testing.T) {
	a := Tuple{true, false, true, false}
	b := Tuple{true, true, false, false}
	// Full Jaccard: both=1, either=3 → 1/3.
	full, err := MaskedSimilarity(a, b, nil)
	if err != nil || math.Abs(full-1.0/3) > 1e-12 {
		t.Fatalf("full similarity = %v, %v", full, err)
	}
	// Mask out the disagreeing coordinates 1 and 2 → both=1, either=1 → 1.
	known := []bool{true, false, false, true}
	masked, err := MaskedSimilarity(a, b, known)
	if err != nil || masked != 1 {
		t.Fatalf("masked similarity = %v, %v, want 1", masked, err)
	}
	// Masked to the disagreeing coordinates only: both=0, either=2 → 0.
	d, err := MaskedSimilarity(a, b, []bool{false, true, true, false})
	if err != nil || d != 0 {
		t.Fatalf("masked similarity = %v, %v, want 0", d, err)
	}
}

func TestMaskedSimilarityNoEvidence(t *testing.T) {
	a := Tuple{true, true}
	b := Tuple{true, true}
	s, err := MaskedSimilarity(a, b, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if s != 0 {
		t.Fatalf("similarity with zero known coordinates = %v, want 0", s)
	}
}

func TestMaskedSimilarityMaskLengthMismatch(t *testing.T) {
	if _, err := MaskedSimilarity(Tuple{true}, Tuple{true}, []bool{true, false}); err == nil {
		t.Fatal("mask length mismatch not rejected")
	}
}

func TestMatchMasked(t *testing.T) {
	db := NewDB("wc", "a")
	db.Add("cpu-hog", Tuple{true, true, false})
	db.Add("mem-hog", Tuple{false, true, true})
	observed := Tuple{true, true, true}
	// Unmasked: both match with Jaccard 2/3.
	known := []bool{true, true, false}
	// Masked to the first two coords: cpu-hog matches 2/2 = 1,
	// mem-hog matches 1/2.
	ms, err := db.MatchMasked(observed, known, "a", "wc", Jaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].Problem != "cpu-hog" || ms[0].Score != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	if math.Abs(ms[1].Score-0.5) > 1e-12 {
		t.Fatalf("mem-hog score = %v, want 0.5", ms[1].Score)
	}
	// Nil mask reduces to Match.
	plain, err := db.Match(observed, "a", "wc", 0)
	if err != nil {
		t.Fatal(err)
	}
	nilMasked, err := db.MatchMasked(observed, nil, "a", "wc", Jaccard, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(nilMasked) {
		t.Fatal("nil-mask MatchMasked diverges from Match")
	}
	for i := range plain {
		if plain[i].Score != nilMasked[i].Score || plain[i].Problem != nilMasked[i].Problem {
			t.Fatalf("diverges at %d: %+v vs %+v", i, plain[i], nilMasked[i])
		}
	}
}

// TestMatchMaskedRefusesOtherMeasures: Jaccard is the only measure; any
// other value names none, and retrieval refuses it rather than scoring
// with Jaccard under another name.
func TestMatchMaskedRefusesOtherMeasures(t *testing.T) {
	db := NewDB("wc", "a")
	db.Add("cpu-hog", Tuple{true, false})
	for _, m := range []Measure{1, 2, -1} {
		if ms, err := db.MatchMasked(Tuple{true, false}, nil, "a", "wc", m, 0); err == nil {
			t.Errorf("MatchMasked with %v = %+v, want an error", m, ms)
		}
	}
}
