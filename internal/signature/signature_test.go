package signature

import (
	"math"
	"testing"
	"testing/quick"
)

func tup(s string) Tuple {
	t, err := ParseTuple(s)
	if err != nil {
		panic(err)
	}
	return t
}

func TestTupleRoundTrip(t *testing.T) {
	orig := "0110100"
	tt, err := ParseTuple(orig)
	if err != nil {
		t.Fatal(err)
	}
	if tt.String() != orig {
		t.Errorf("round trip = %q", tt.String())
	}
	if tt.Ones() != 3 {
		t.Errorf("Ones = %d", tt.Ones())
	}
	if _, err := ParseTuple("01x"); err == nil {
		t.Error("invalid character should error")
	}
}

func TestSimilarityJaccard(t *testing.T) {
	s, err := Similarity(tup("1100"), tup("1010"))
	if err != nil {
		t.Fatal(err)
	}
	// intersection 1, union 3.
	if math.Abs(s-1.0/3.0) > 1e-12 {
		t.Errorf("jaccard = %v, want 1/3", s)
	}
	s, _ = Similarity(tup("0000"), tup("0000"))
	if s != 1 {
		t.Errorf("jaccard of empty sets = %v, want 1", s)
	}
}

func TestSimilarityErrors(t *testing.T) {
	if _, err := Similarity(tup("11"), tup("111")); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestMeasureString(t *testing.T) {
	if Jaccard.String() != "jaccard" || Measure(1).String() != "measure(1)" {
		t.Error("measure names wrong")
	}
}

func TestDBAddAndMatch(t *testing.T) {
	db := NewDB("wordcount", "10.0.0.2")
	db.Add("cpu-hog", tup("1100"))
	db.Add("mem-hog", tup("0011"))
	if db.Len() != 2 {
		t.Fatalf("Len = %d", db.Len())
	}
	ms, err := db.Match(tup("1100"), "10.0.0.2", "wordcount", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	if ms[0].Problem != "cpu-hog" || ms[0].Score != 1 {
		t.Errorf("best match = %+v", ms[0])
	}
	if ms[1].Score >= ms[0].Score {
		t.Error("matches not sorted")
	}
}

// TestMatchContextScoping: a database is one context's signature base. A
// query naming another context reads none of its entries, an empty field
// being a context value, not a wildcard; and every entry and match it hands
// out, a clone's included, carries its context.
func TestMatchContextScoping(t *testing.T) {
	db := NewDB("sort", "10.0.0.2")
	db.Add("a", tup("11"))
	for _, other := range [][2]string{{"10.0.0.3", "sort"}, {"10.0.0.2", "wordcount"}, {"", "sort"}, {"", ""}} {
		if _, err := db.Match(tup("11"), other[0], other[1], 0); err != ErrEmpty {
			t.Errorf("query naming %s@%s: err = %v, want ErrEmpty", other[1], other[0], err)
		}
	}
	ms, err := db.Match(tup("11"), "10.0.0.2", "sort", 0)
	if err != nil || len(ms) != 1 || ms[0].IP != "10.0.0.2" || ms[0].Workload != "sort" {
		t.Errorf("own-context match = %+v, %v; want a under sort@10.0.0.2", ms, err)
	}
	for _, e := range append(db.Entries(), db.Clone().Entries()...) {
		if e.IP != "10.0.0.2" || e.Workload != "sort" {
			t.Errorf("entry %+v does not carry the database's context", e)
		}
	}
	// The zero DB is the zero context's: both fields empty.
	var zero DB
	zero.Add("b", tup("10"))
	if _, err := zero.Match(tup("11"), "10.0.0.2", "sort", 0); err != ErrEmpty {
		t.Errorf("zero DB, query naming sort@10.0.0.2: err = %v, want ErrEmpty", err)
	}
	ms, err = zero.Match(tup("11"), "", "", 0)
	if err != nil || len(ms) != 1 || ms[0].Problem != "b" || ms[0].IP != "" || ms[0].Workload != "" {
		t.Errorf("zero-context match = %+v, %v; want b alone", ms, err)
	}
}

func TestMatchTopK(t *testing.T) {
	db := NewDB("w", "x")
	for i, p := range []string{"a", "b", "c", "d"} {
		tu := make(Tuple, 4)
		tu[i] = true
		db.Add(p, tu)
	}
	ms, err := db.Match(tup("1000"), "x", "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("topK = %d results, want 2", len(ms))
	}
}

func TestMatchSkipsStaleTuples(t *testing.T) {
	db := NewDB("w", "x")
	db.Add("old", tup("101"))
	db.Add("new", tup("10"))
	ms, err := db.Match(tup("10"), "x", "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Problem != "new" {
		t.Errorf("matches = %v", ms)
	}
}

func TestMinScoreFilter(t *testing.T) {
	db := NewDB("w", "x")
	db.MinScore = 0.9
	db.Add("a", tup("1100"))
	ms, err := db.Match(tup("0011"), "x", "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("low-score match not filtered: %v", ms)
	}
}

func TestAddCopiesTuple(t *testing.T) {
	var db DB
	tu := tup("10")
	db.Add("a", tu)
	tu[0] = false
	if got := db.Entries()[0].Tuple; !got[0] {
		t.Error("DB shares storage with caller's tuple")
	}
}

func TestBestProblem(t *testing.T) {
	ms := []Match{
		{Entry: Entry{Problem: "a"}, Score: 0.5},
		{Entry: Entry{Problem: "b"}, Score: 0.9},
		{Entry: Entry{Problem: "a"}, Score: 0.8},
	}
	best := BestProblem(ms)
	if len(best) != 2 {
		t.Fatalf("best = %d entries", len(best))
	}
	if best[0].Problem != "b" || best[1].Problem != "a" || best[1].Score != 0.8 {
		t.Errorf("best = %v", best)
	}
}

// Property: similarity is symmetric, bounded in [0,1], and 1 for identical
// tuples.
func TestSimilarityProperties(t *testing.T) {
	f := func(bits []bool, bits2 []bool) bool {
		n := len(bits)
		if len(bits2) < n {
			n = len(bits2)
		}
		if n == 0 {
			return true
		}
		a := Tuple(bits[:n])
		b := Tuple(bits2[:n])
		s1, err1 := Similarity(a, b)
		s2, err2 := Similarity(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		if s1 != s2 || s1 < 0 || s1 > 1 {
			return false
		}
		self, err := Similarity(a, a)
		return err == nil && self == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestMergeDedupesByContextAndFingerprint: within one context's database
// the (problem, tuple) fingerprint is an entry's identity; the same payload
// in another context's database is that base's own entry.
func TestMergeDedupesByContextAndFingerprint(t *testing.T) {
	db := NewDB("wordcount", "n1")
	if !db.Merge("cpu-hog", tup("0110")) {
		t.Fatal("first Merge should add")
	}
	if db.Merge("cpu-hog", tup("0110")) {
		t.Error("identical Merge should dedupe")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	// Same payload in another operation context's base is a distinct entry.
	other := NewDB("wordcount", "n2")
	if !other.Merge("cpu-hog", tup("0110")) || other.Len() != 1 || db.Len() != 1 {
		t.Error("same payload, different context should add to that context alone")
	}
	// Different payload under the same context is a distinct entry.
	if !db.Merge("cpu-hog", tup("1110")) {
		t.Error("different tuple should add")
	}
	if !db.Merge("mem-hog", tup("0110")) {
		t.Error("different problem should add")
	}
	if db.Len() != 3 {
		t.Fatalf("Len = %d, want 3", db.Len())
	}
}

func TestMergeSurvivesClone(t *testing.T) {
	db := NewDB("wordcount", "n1")
	db.Merge("cpu-hog", tup("0110"))
	// A clone dedupes against the entries it copied.
	c := db.Clone()
	if c.Merge("cpu-hog", tup("0110")) {
		t.Error("clone should dedupe entries it copied")
	}
}

func TestFingerprintSeparatesProblemAndTuple(t *testing.T) {
	a := Entry{Tuple: tup("1"), Problem: "ab"}
	b := Entry{Tuple: tup("11"), Problem: "a"}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("problem/tuple boundary must be fingerprint-separated")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint must be deterministic")
	}
}
