package signature

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
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

// TestMergeTextMatchesMerge holds MergeText to ParseTuple + Merge of the same
// bytes: the same acceptance and error, the same added bit, and in the end
// the same database — around every word boundary, past the 512 coordinates
// that pack on the stack, and for a bad byte first and last.
func TestMergeTextMatchesMerge(t *testing.T) {
	var text, ref DB
	both := func(tag, problem, s string) {
		t.Helper()
		added, textErr := text.MergeText("wordcount", "10.0.0.2", problem, []byte(s))
		tu, err := ParseTuple(s)
		want := err == nil && ref.Merge(Entry{Tuple: tu, Problem: problem, IP: "10.0.0.2", Workload: "wordcount"})
		if (err == nil) != (textErr == nil) || err != nil && err.Error() != textErr.Error() || added != want {
			t.Errorf("%s, %d coordinates: MergeText = %v, %v; ParseTuple + Merge = %v, %v", tag, len(s), added, textErr, want, err)
		}
		if text.Len() != ref.Len() {
			t.Fatalf("%s, %d coordinates: Len = %d, want %d", tag, len(s), text.Len(), ref.Len())
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 1000} {
		tu := make(Tuple, n)
		for i := range tu {
			tu[i] = (i*i+i/7)%5 == 0
		}
		s := tu.String()
		both("new", "cpu-hog", s)
		both("duplicate", "cpu-hog", s)
		both("another problem", "mem-hog", s)
		if n > 0 {
			both("bad byte first", "cpu-hog", "x"+s[1:])
			both("bad byte last", "cpu-hog", s[:n-1]+"2")
		}
	}
	if got, want := text.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
		t.Errorf("MergeText stored %d entries unlike Merge's %d", len(got), len(want))
	}
	// A duplicate of up to 512 coordinates is checked on the stack.
	s := []byte(strings.Repeat("01", 256))
	if allocs := testing.AllocsPerRun(100, func() { text.MergeText("wordcount", "10.0.0.2", "p", s) }); allocs != 0 {
		t.Errorf("MergeText of a stored 512-coordinate tuple allocated %v times", allocs)
	}
}

// mergeEach is MergeFrom's reference: src's entries merged one by one.
func mergeEach(db, src *DB) (added int) {
	for _, e := range src.Entries() {
		if db.Merge(e) {
			added++
		}
	}
	return added
}

// textDB fills a database sized for len(lines) the way a restore does, one
// MergeText per line "workload ip problem tuple" (a "-" field is empty).
func textDB(t *testing.T, lines ...string) *DB {
	t.Helper()
	db := NewDB(len(lines))
	for _, l := range lines {
		f := strings.Fields(l)
		for i := range f {
			if f[i] == "-" {
				f[i] = ""
			}
		}
		if _, err := db.MergeText(f[0], f[1], f[2], []byte(f[3])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestMergeFrom: into an empty database MergeFrom adopts the source whole,
// into a non-empty one it merges entry by entry; either way the result is
// what merging the source's entries one by one gives, for a database of
// several scopes, the empty one among them, one file after another.
func TestMergeFrom(t *testing.T) {
	file1 := []string{"wc 10.0.0.2 cpu 0110", "wc 10.0.0.2 mem 1100", "wc 10.0.0.2 cpu 0110", "wc 10.0.0.2 cpu 011", "- - cpu 0110"}
	file2 := []string{"wc 10.0.0.2 cpu 0110", "sort 10.0.0.3 cpu 0110", "wc 10.0.0.2 net 0001", "- - cpu 0110", "- - disk 1111"}
	got, ref := &DB{MinScore: 0.3}, &DB{MinScore: 0.3}
	src := textDB(t, file1...)
	want := mergeEach(ref, textDB(t, file1...))
	if added := got.MergeFrom(src); added != want || added != 4 || src.Len() != 0 {
		t.Fatalf("adopting: added %d (reference %d, want 4), source left with %d", added, want, src.Len())
	}
	src = textDB(t, file2...)
	want = mergeEach(ref, src)
	if added := got.MergeFrom(src); added != want || added != 3 || src.Len() != 5 {
		t.Fatalf("merging: added %d (reference %d, want 3), source left with %d of 5", added, want, src.Len())
	}
	if !reflect.DeepEqual(got.Entries(), ref.Entries()) {
		t.Fatalf("MergeFrom stored\n%v\nmerging one by one stores\n%v", got.Entries(), ref.Entries())
	}
	if got.MinScore != 0.3 {
		t.Errorf("MinScore = %v after MergeFrom, want the receiver's 0.3", got.MinScore)
	}
	for _, scope := range [][2]string{{"10.0.0.2", "wc"}, {"", ""}, {"10.0.0.3", ""}} {
		q := Tuple{false, true, true, false}
		g, gErr := got.Rank(q, nil, scope[0], scope[1], Jaccard, 0)
		w, wErr := ref.Rank(q, nil, scope[0], scope[1], Jaccard, 0)
		sameOutcome(t, "rank "+scope[0]+"/"+scope[1], g, gErr, w, wErr)
	}
	// An adopted store keeps merging as its own: a later duplicate is refused.
	if got.Merge(Entry{Tuple: Tuple{true, true, false, false}, Problem: "mem", IP: "10.0.0.2", Workload: "wc"}) {
		t.Error("the adopted store took a duplicate")
	}
	var scopes []string
	if err := got.Scopes(func(workload, ip string) error {
		scopes = append(scopes, workload+"/"+ip)
		return nil
	}); err != nil || !reflect.DeepEqual(scopes, []string{"/", "sort/10.0.0.3", "wc/10.0.0.2"}) {
		t.Errorf("Scopes = %v, %v", scopes, err)
	}
}

// TestAdoptedStoreSlack: NewDB reserves room for the count a restore takes
// from the file's markup; a file whose signatures repeat, or span scopes and
// lengths, uses less of it, and the adopted store must hold no more capacity
// than the same entries merged one by one into a zero DB.
func TestAdoptedStoreSlack(t *testing.T) {
	capacity := func(db *DB) (n int) {
		n = cap(db.order)
		for _, sp := range db.scopes {
			for _, b := range sp.byLen {
				n += cap(b.words) + cap(b.ones) + cap(b.probs) + cap(b.ids)
			}
		}
		return n
	}
	var distinct, repeated, mixed []string
	for i := 0; i < 300; i++ {
		tuple := strconv.FormatInt(int64(i)+1<<9, 2)
		distinct = append(distinct, "wc 10.0.0.2 p "+tuple)
		repeated = append(repeated, "wc 10.0.0.2 p "+tuple[:3])
		mixed = append(mixed, fmt.Sprintf("wc 10.0.0.%d p %s", i%3, tuple[:1+i%4]))
	}
	for name, lines := range map[string][]string{"distinct": distinct, "repeated": repeated, "mixed": mixed} {
		var adopted, appended DB
		adopted.MergeFrom(textDB(t, lines...))
		mergeEach(&appended, textDB(t, lines...))
		if !reflect.DeepEqual(adopted.Entries(), appended.Entries()) {
			t.Fatalf("%s: the adopted store differs from the appended one", name)
		}
		if a, b := capacity(&adopted), capacity(&appended); a > b {
			t.Errorf("%s: adopted store holds capacity %d, appended %d", name, a, b)
		}
	}
}
