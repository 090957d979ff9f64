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
// and dedup a repeated Merge exactly like its source, in its source's
// context, while staying fully independent of later source mutations.
func TestCloneAnswersAndDedupsLikeSource(t *testing.T) {
	rng := stats.NewRNG(2313)
	db := &DB{workload: "w", ip: "n", MinScore: 0.3}
	for i := 0; i < 15; i++ {
		db.Add("p", randomTuple(rng, 40, 0.25))
	}
	q := randomTuple(rng, 40, 0.25)
	clone := db.Clone()
	want, wantErr := db.Match(q, "n", "w", 5)
	got, gotErr := clone.Match(q, "n", "w", 5)
	if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
		t.Fatalf("clone match %+v (%v) != source %+v (%v)", got, gotErr, want, wantErr)
	}
	if !reflect.DeepEqual(clone.Entries(), db.Entries()) {
		t.Fatal("clone's entries differ from its source's")
	}
	for _, e := range db.Entries() {
		if clone.Merge(e.Problem, e.Tuple) {
			t.Fatalf("clone re-stored %s %v, which its source holds", e.Problem, e.Tuple)
		}
	}
	db.Add("new", q)
	after, err := clone.Match(q, "n", "w", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("clone drifted after source mutation: %+v != %+v", after, want)
	}
	if !clone.Merge("new", q) {
		t.Error("clone refused an entry only its source holds")
	}
}

// TestEntriesDeepCopy: mutating the slice Entries returns must never reach
// the stored signatures.
func TestEntriesDeepCopy(t *testing.T) {
	db := &DB{workload: "w", ip: "n", MinScore: 0.3}
	tu, _ := ParseTuple("0110")
	db.Add("p", tu)
	out := db.Entries()
	out[0].Tuple[1] = false
	out[0].Tuple[3] = true
	got, err := db.Match(Tuple{false, true, true, false}, "n", "w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Score != 1 || got[0].Tuple.String() != "0110" {
		t.Errorf("stored signature corrupted through Entries(): %+v", got)
	}
}

// TestMaskLengthValidatedOnEmptyScope: a bad mask must be reported even when
// the query reads zero entries — an empty database, or a query naming
// another context (historically the per-entry check was silently skipped).
func TestMaskLengthValidatedOnEmptyScope(t *testing.T) {
	db := &DB{}
	if _, err := db.MatchMasked(make(Tuple, 8), make([]bool, 5), "", "", Jaccard, 0); err == nil || err == ErrEmpty {
		t.Fatalf("mask length mismatch on an empty database: %v", err)
	}
	db.Add("p", make(Tuple, 8))
	if _, err := db.MatchMasked(make(Tuple, 8), make([]bool, 5), "nowhere", "none", Jaccard, 0); err == nil || err == ErrEmpty {
		t.Fatalf("mask length mismatch on another context's query: %v", err)
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
		added, textErr := text.MergeText(problem, []byte(s))
		tu, err := ParseTuple(s)
		want := err == nil && ref.Merge(problem, tu)
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
	if allocs := testing.AllocsPerRun(100, func() { text.MergeText("p", s) }); allocs != 0 {
		t.Errorf("MergeText of a stored 512-coordinate tuple allocated %v times", allocs)
	}
}

// mergeEach is MergeFrom's reference: src's entries merged one by one.
func mergeEach(db, src *DB) (added int) {
	for _, e := range src.Entries() {
		if db.Merge(e.Problem, e.Tuple) {
			added++
		}
	}
	return added
}

// textDB fills a database of the context (wc, 10.0.0.2) the way a restore
// does, one MergeText per line "problem tuple", its columns grown by append
// as they go: NewDB reserves nothing.
func textDB(t *testing.T, lines ...string) *DB {
	t.Helper()
	db := NewDB("wc", "10.0.0.2")
	for _, l := range lines {
		f := strings.Fields(l)
		if _, err := db.MergeText(f[0], []byte(f[1])); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestMergeFrom: into an empty database MergeFrom adopts the source whole,
// into a non-empty one it merges entry by entry; either way the result is
// what merging the source's entries one by one gives, one file after
// another, and the receiver keeps its context.
func TestMergeFrom(t *testing.T) {
	file1 := []string{"cpu 0110", "mem 1100", "cpu 0110", "cpu 011", "disk 1111"}
	file2 := []string{"cpu 0110", "net 0001", "io 0011", "disk 1111", "lock 1001"}
	got, ref := &DB{workload: "wc", ip: "10.0.0.2", MinScore: 0.3}, &DB{workload: "wc", ip: "10.0.0.2", MinScore: 0.3}
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
	if got.MinScore != 0.3 || got.workload != "wc" || got.ip != "10.0.0.2" {
		t.Errorf("after MergeFrom: MinScore %v, context %s@%s; want the receiver's 0.3, wc@10.0.0.2", got.MinScore, got.workload, got.ip)
	}
	q := Tuple{false, true, true, false}
	g, gErr := got.Rank(q, nil, 0)
	w, wErr := ref.Rank(q, nil, 0)
	sameOutcome(t, "rank", g, gErr, w, wErr)
	// An adopted store keeps merging as its own: a later duplicate is refused.
	if got.Merge("mem", Tuple{true, true, false, false}) {
		t.Error("the adopted store took a duplicate")
	}
}

// TestAdoptedStoreSlack: NewDB reserves nothing, so a restore's database
// grows by append as a fresh profile's would, and MergeFrom adopts it as it
// is. What remains to check is that adoption adds no slack: for a file whose
// signatures are distinct, repeat, or span tuple lengths, the adopted store
// must hold no more capacity than the same entries merged one by one into a
// fresh DB.
func TestAdoptedStoreSlack(t *testing.T) {
	capacity := func(db *DB) (n int) {
		n = cap(db.order)
		for _, b := range db.byLen {
			n += cap(b.words) + cap(b.ones) + cap(b.probs) + cap(b.ids)
		}
		return n
	}
	var distinct, repeated, mixed []string
	for i := 0; i < 300; i++ {
		tuple := strconv.FormatInt(int64(i)+1<<9, 2)
		distinct = append(distinct, "p "+tuple)
		repeated = append(repeated, "p "+tuple[:3])
		mixed = append(mixed, fmt.Sprintf("p%d %s", i%3, tuple[:1+i%4]))
	}
	for name, lines := range map[string][]string{"distinct": distinct, "repeated": repeated, "mixed": mixed} {
		adopted, appended := NewDB("wc", "10.0.0.2"), NewDB("wc", "10.0.0.2")
		adopted.MergeFrom(textDB(t, lines...))
		mergeEach(appended, textDB(t, lines...))
		if !reflect.DeepEqual(adopted.Entries(), appended.Entries()) {
			t.Fatalf("%s: the adopted store differs from the appended one", name)
		}
		if a, b := capacity(adopted), capacity(appended); a > b {
			t.Errorf("%s: adopted store holds capacity %d, appended %d", name, a, b)
		}
	}
}
