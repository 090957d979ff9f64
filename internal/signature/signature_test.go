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
	var db DB
	db.Add(Entry{Tuple: tup("1100"), Problem: "cpu-hog", IP: "10.0.0.2", Workload: "wordcount"})
	db.Add(Entry{Tuple: tup("0011"), Problem: "mem-hog", IP: "10.0.0.2", Workload: "wordcount"})
	db.Add(Entry{Tuple: tup("1111"), Problem: "overload", IP: "10.0.0.2", Workload: "tpcds"})
	if db.Len() != 3 {
		t.Fatalf("Len = %d", db.Len())
	}
	ms, err := db.Match(tup("1100"), "10.0.0.2", "wordcount", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2 (scoped to wordcount)", len(ms))
	}
	if ms[0].Problem != "cpu-hog" || ms[0].Score != 1 {
		t.Errorf("best match = %+v", ms[0])
	}
	if ms[1].Score >= ms[0].Score {
		t.Error("matches not sorted")
	}
}

func TestMatchContextScoping(t *testing.T) {
	var db DB
	db.Add(Entry{Tuple: tup("11"), Problem: "a", IP: "10.0.0.2", Workload: "sort"})
	// Wrong context: no signatures in scope.
	if _, err := db.Match(tup("11"), "10.0.0.3", "sort", 0); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
	// An empty field is a scope value, not a wildcard: the empty scope
	// reads its own entries alone.
	if _, err := db.Match(tup("11"), "", "sort", 0); err != ErrEmpty {
		t.Errorf("empty ip: err = %v, want ErrEmpty", err)
	}
	db.Add(Entry{Tuple: tup("10"), Problem: "b"})
	ms, err := db.Match(tup("11"), "", "", 0)
	if err != nil || len(ms) != 1 || ms[0].Problem != "b" {
		t.Errorf("empty scope match = %v, %v; want b alone", ms, err)
	}
}

func TestMatchTopK(t *testing.T) {
	var db DB
	for i, p := range []string{"a", "b", "c", "d"} {
		tu := make(Tuple, 4)
		tu[i] = true
		db.Add(Entry{Tuple: tu, Problem: p, IP: "x", Workload: "w"})
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
	var db DB
	db.Add(Entry{Tuple: tup("101"), Problem: "old", IP: "x", Workload: "w"})
	db.Add(Entry{Tuple: tup("10"), Problem: "new", IP: "x", Workload: "w"})
	ms, err := db.Match(tup("10"), "x", "w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Problem != "new" {
		t.Errorf("matches = %v", ms)
	}
}

func TestMinScoreFilter(t *testing.T) {
	db := DB{MinScore: 0.9}
	db.Add(Entry{Tuple: tup("1100"), Problem: "a", IP: "x", Workload: "w"})
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
	db.Add(Entry{Tuple: tu, Problem: "a", IP: "x", Workload: "w"})
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

func TestMergeDedupesByContextAndFingerprint(t *testing.T) {
	var db DB
	e := Entry{Tuple: tup("0110"), Problem: "cpu-hog", IP: "n1", Workload: "wordcount"}
	if !db.Merge(e) {
		t.Fatal("first Merge should add")
	}
	if db.Merge(e) {
		t.Error("identical Merge should dedupe")
	}
	if db.Len() != 1 {
		t.Fatalf("Len = %d, want 1", db.Len())
	}
	// Same payload under a different operation context is a distinct entry.
	other := e
	other.IP = "n2"
	if !db.Merge(other) {
		t.Error("same payload, different context should add")
	}
	// Different payload under the same context is a distinct entry.
	diff := e
	diff.Tuple = tup("1110")
	if !db.Merge(diff) {
		t.Error("different tuple should add")
	}
	diffProblem := e
	diffProblem.Problem = "mem-hog"
	if !db.Merge(diffProblem) {
		t.Error("different problem should add")
	}
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want 4", db.Len())
	}
}

func TestMergeSurvivesClone(t *testing.T) {
	var db DB
	e := Entry{Tuple: tup("0110"), Problem: "cpu-hog", IP: "n1", Workload: "wordcount"}
	db.Merge(e)
	// A clone dedupes against the entries it copied.
	c := db.Clone()
	if c.Merge(e) {
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
