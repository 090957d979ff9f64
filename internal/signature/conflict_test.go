package signature

import (
	"testing"
)

func conflictDB() *DB {
	var db DB
	add := func(tuple, problem, ip, wl string) {
		t, err := ParseTuple(tuple)
		if err != nil {
			panic(err)
		}
		db.Add(Entry{Tuple: t, Problem: problem, IP: ip, Workload: wl})
	}
	// net-drop and net-delay nearly identical (the paper's conflict).
	add("111100", "net-drop", "10.0.0.2", "wordcount")
	add("111000", "net-delay", "10.0.0.2", "wordcount")
	// mem-hog clearly distinct.
	add("000011", "mem-hog", "10.0.0.2", "wordcount")
	// Same problems on another node must not cross-report.
	add("110011", "net-drop", "10.0.0.3", "wordcount")
	return &db
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

func TestConflictsRespectsContextBoundaries(t *testing.T) {
	var db DB
	a, _ := ParseTuple("1100")
	db.Add(Entry{Tuple: a, Problem: "x", IP: "n1", Workload: "w"})
	db.Add(Entry{Tuple: a, Problem: "y", IP: "n2", Workload: "w"})
	cs := db.Conflicts(0.1)
	if len(cs) != 0 {
		t.Errorf("cross-context conflict reported: %v", cs)
	}
}

func TestConflictsIgnoresSameProblem(t *testing.T) {
	var db DB
	a, _ := ParseTuple("1100")
	db.Add(Entry{Tuple: a, Problem: "x", IP: "n1", Workload: "w"})
	db.Add(Entry{Tuple: a, Problem: "x", IP: "n1", Workload: "w"})
	cs := db.Conflicts(0.1)
	if len(cs) != 0 {
		t.Errorf("same-problem pair reported as conflict: %v", cs)
	}
}

func TestConflictsSkipsStaleTuples(t *testing.T) {
	var db DB
	a, _ := ParseTuple("1100")
	b, _ := ParseTuple("110")
	db.Add(Entry{Tuple: a, Problem: "x", IP: "n1", Workload: "w"})
	db.Add(Entry{Tuple: b, Problem: "y", IP: "n1", Workload: "w"})
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
		if s.IP == "10.0.0.2" {
			byProblem[s.Problem] = s
		}
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
	db.Add(Entry{Tuple: t1, Problem: "x", IP: "n", Workload: "w"})
	db.Add(Entry{Tuple: t2, Problem: "x", IP: "n", Workload: "w"})
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
		db.Add(Entry{Tuple: tup(tuple), Problem: problem, IP: "n", Workload: "w"})
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
