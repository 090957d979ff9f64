package signature

import (
	"testing"
)

func conflictDB() *DB {
	db := NewDB("wordcount", "10.0.0.2", 0)
	// net-drop and net-delay nearly identical (the paper's conflict).
	db.Add("net-drop", tup("111100"))
	db.Add("net-delay", tup("111000"))
	// mem-hog clearly distinct.
	db.Add("mem-hog", tup("000011"))
	return db
}

func TestConflictsFindsTheKnownPair(t *testing.T) {
	db := conflictDB()
	cs := db.Conflicts(0.5)
	if len(cs) != 1 {
		t.Fatalf("conflicts = %v, want exactly the net pair", cs)
	}
	c := cs[0]
	names := map[string]bool{c.A.Problem: true, c.B.Problem: true}
	if !names["net-drop"] || !names["net-delay"] {
		t.Errorf("conflict pair = %v", c)
	}
	if c.Score < 0.7 {
		t.Errorf("conflict score = %v", c.Score)
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

// TestConflictsRespectsContextBoundaries: an audit reads one context's
// database, so the same tuple labelled x on one node and y on another is no
// conflict, and every row names the context audited.
func TestConflictsRespectsContextBoundaries(t *testing.T) {
	n1, n2 := NewDB("w", "n1", 0), NewDB("w", "n2", 0)
	n1.Add("x", tup("1100"))
	n2.Add("y", tup("1100"))
	for _, db := range []*DB{n1, n2} {
		if cs := db.Conflicts(0.1); len(cs) != 0 {
			t.Errorf("%s@%s: conflict reported across contexts: %v", db.workload, db.ip, cs)
		}
		for _, s := range db.Separabilities() {
			if s.IP != db.ip || s.Workload != db.workload || s.WorstProblem != "" {
				t.Errorf("%s@%s: separability row %+v reaches past its context", db.workload, db.ip, s)
			}
		}
	}
	n1.Add("y", tup("1100"))
	cs := n1.Conflicts(0.1)
	if len(cs) != 1 || cs[0].A.IP != "n1" || cs[0].B.IP != "n1" || cs[0].String() != "x ~ y (1.00, w@n1)" {
		t.Errorf("conflicts within n1 = %v, want x ~ y under w@n1", cs)
	}
}

func TestConflictsIgnoresSameProblem(t *testing.T) {
	var db DB
	a, _ := ParseTuple("1100")
	db.Add("x", a)
	db.Add("x", a)
	cs := db.Conflicts(0.1)
	if len(cs) != 0 {
		t.Errorf("same-problem pair reported as conflict: %v", cs)
	}
}

func TestConflictsSkipsStaleTuples(t *testing.T) {
	var db DB
	a, _ := ParseTuple("1100")
	b, _ := ParseTuple("110")
	db.Add("x", a)
	db.Add("y", b)
	cs := db.Conflicts(0.0)
	if len(cs) != 0 {
		t.Errorf("stale-length pair reported: %v", cs)
	}
}

func TestSeparabilities(t *testing.T) {
	db := conflictDB()
	seps := db.Separabilities()
	byProblem := map[string]Separability{}
	for _, s := range seps {
		byProblem[s.Problem] = s
	}
	nd := byProblem["net-drop"]
	mh := byProblem["mem-hog"]
	if nd.WorstProblem != "net-delay" {
		t.Errorf("net-drop worst external = %q", nd.WorstProblem)
	}
	if nd.Margin() >= mh.Margin() {
		t.Errorf("net-drop margin %.2f should be below mem-hog margin %.2f", nd.Margin(), mh.Margin())
	}
	// Sorted ascending by margin: the conflicted pair first.
	if len(seps) > 0 && seps[0].Margin() > seps[len(seps)-1].Margin() {
		t.Error("separabilities not sorted by margin")
	}
	// Single-signature problems report cohesion 1.
	if mh.Cohesion != 1 {
		t.Errorf("mem-hog cohesion = %v", mh.Cohesion)
	}
}

func TestSeparabilitiesMultipleSignatures(t *testing.T) {
	var db DB
	t1, _ := ParseTuple("1100")
	t2, _ := ParseTuple("1110")
	db.Add("x", t1)
	db.Add("x", t2)
	seps := db.Separabilities()
	if len(seps) != 1 {
		t.Fatalf("seps = %v", seps)
	}
	// Cohesion = J(1100, 1110) = 2/3.
	if diff := seps[0].Cohesion - 2.0/3.0; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("cohesion = %v, want 2/3", seps[0].Cohesion)
	}
}

// TestSeparabilitiesSkipsStaleTuples: a retrain leaves one problem holding
// tuples of two lengths. Cohesion and the external means compare only
// same-length pairs, as Conflicts does, instead of refusing the database.
func TestSeparabilitiesSkipsStaleTuples(t *testing.T) {
	var db DB
	add := func(tuple, problem string) {
		db.Add(problem, tup(tuple))
	}
	add("1100", "x")
	add("110", "x") // stale: the set that made it had three invariants
	add("1110", "x")
	add("1000", "y")
	add("011", "z")
	add("0101", "z") // z's two tuples differ in length: no comparable pair
	byProblem := map[string]Separability{}
	for _, s := range db.Separabilities() {
		byProblem[s.Problem] = s
	}
	if len(byProblem) != 3 {
		t.Fatalf("separabilities = %v, want one row per problem", byProblem)
	}
	near := func(got, want float64) bool { return got-want < 1e-12 && want-got < 1e-12 }
	// x: J(1100, 1110) = 2/3 is its one same-length pair. Against y's 1000,
	// (1/2 + 1/3) / 2 = 5/12; against z, (1/3 + 1/3 + 1/4) / 3 = 11/36.
	x := byProblem["x"]
	if !near(x.Cohesion, 2.0/3.0) {
		t.Errorf("x cohesion = %v, want 2/3", x.Cohesion)
	}
	if x.WorstProblem != "y" || !near(x.WorstExternal, 5.0/12.0) {
		t.Errorf("x worst external = %v vs %q, want 5/12 vs y", x.WorstExternal, x.WorstProblem)
	}
	// z keeps cohesion 1; its nearest problem is x at 11/36.
	if z := byProblem["z"]; z.Cohesion != 1 || z.WorstProblem != "x" || !near(z.WorstExternal, 11.0/36.0) {
		t.Errorf("z = %+v, want cohesion 1 and 11/36 vs x", z)
	}
}

// TestSeparabilitiesBreakTiesByName: a and its two rivals score the same
// mean (J(1100, 1000) = J(1100, 0100) = 1/2), so the rival named is the
// first in name order, on every build and whatever the insertion order.
func TestSeparabilitiesBreakTiesByName(t *testing.T) {
	for i := 0; i < 200; i++ {
		db := NewDB("w", "n", 0)
		db.Add("c", tup("0100"))
		db.Add("b", tup("1000"))
		db.Add("a", tup("1100"))
		for _, s := range db.Separabilities() {
			if s.Problem == "a" && (s.WorstProblem != "b" || s.WorstExternal != 0.5) {
				t.Fatalf("build %d: a's worst external %v vs %q, want 0.5 vs b", i, s.WorstExternal, s.WorstProblem)
			}
		}
	}
}

// TestSeparabilitiesNameAZeroSimilarityRival: two disjoint problems are
// comparable — same tuple length — at similarity 0, so each names the
// other; "" is left for a problem with no comparable rival at all.
func TestSeparabilitiesNameAZeroSimilarityRival(t *testing.T) {
	db := NewDB("w", "n", 0)
	db.Add("x", tup("1100"))
	db.Add("y", tup("0011"))
	db.Add("z", tup("110")) // stale length: comparable with nothing
	want := map[string]string{"x": "y", "y": "x", "z": ""}
	for _, s := range db.Separabilities() {
		if s.WorstProblem != want[s.Problem] || s.WorstExternal != 0 {
			t.Errorf("%s: worst external %v vs %q, want 0 vs %q", s.Problem, s.WorstExternal, s.WorstProblem, want[s.Problem])
		}
	}
}
