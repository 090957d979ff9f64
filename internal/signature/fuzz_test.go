package signature

import (
	"fmt"
	"reflect"
	"testing"

	"invarnetx/internal/stats"
)

// FuzzParseTuple exercises the tuple parser with arbitrary byte strings:
// it must either reject the input or round-trip it exactly, and MergeText
// must do what ParseTuple + Merge do with the same bytes.
func FuzzParseTuple(f *testing.F) {
	f.Add("")
	f.Add("0")
	f.Add("0110100")
	f.Add("2")
	f.Add("01x10")
	f.Add("0110100101101001011010010110100101101001011010010110100101101001x")
	f.Add("01101001011010010110100101101001011010010110100101101001011010010")
	f.Fuzz(func(t *testing.T, s string) {
		var text DB
		added, textErr := text.MergeText("p", []byte(s))
		tu, err := ParseTuple(s)
		if (err == nil) != (textErr == nil) || err != nil && err.Error() != textErr.Error() || added != (err == nil) {
			t.Fatalf("%q: MergeText = %v, %v; ParseTuple err = %v", s, added, textErr, err)
		}
		if err != nil {
			return // rejected input, fine
		}
		if tu.String() != s {
			t.Fatalf("round trip %q -> %q", s, tu.String())
		}
		if tu.Ones() < 0 || tu.Ones() > len(tu) {
			t.Fatalf("Ones out of range for %q", s)
		}
		var ref DB
		ref.Merge("p", tu)
		if got, want := text.Entries(), ref.Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: MergeText stored %v, Merge %v", s, got, want)
		}
		if text.Merge("p", tu) {
			t.Fatalf("%q: Merge of the parsed entry did not dedupe against MergeText's", s)
		}
	})
}

// buildRandomDB populates the database of a context drawn from the test
// pool with nEntries random signatures across a small pool of tuple lengths
// (including stale lengths) and densities (including all-zero tuples).
func buildRandomDB(rng *stats.RNG, nEntries, tupleLen int, minScore float64) *DB {
	db := contextDB(rng, minScore)
	for i := 0; i < nEntries; i++ {
		ln := tupleLen
		switch rng.Intn(10) {
		case 0:
			if ln = tupleLen - 2; ln < 0 {
				ln = 0
			} // stale entry from an older invariant set
		case 1:
			ln = tupleLen + 5
		}
		density := []float64{0, 0.05, 0.2, 0.6}[rng.Intn(4)]
		tuple := randomTuple(rng, ln, density)
		db.Add(string(rune('a'+rng.Intn(6))), tuple)
	}
	return db
}

// matchBothPaths runs the same query through the production scan and the
// linear reference scan (reference_test.go), and fails the test unless both
// return byte-identical results and errors.
func matchBothPaths(t *testing.T, db *DB, tuple Tuple, known []bool, ip, wl string, topK int, tag string) {
	t.Helper()
	got, gotErr := db.MatchMasked(tuple, known, ip, wl, Jaccard, topK)
	want, wantErr := matchLinear(db.Entries(), db.MinScore, tuple, known, ip, wl, topK)
	sameOutcome(t, tag, got, gotErr, want, wantErr)
}

// TestMatchEquivalence pins the retrieval contract: for random databases the
// packed scan — popcount scoring, the zero-query closed form, the MinScore
// floor, stale-length skips — returns []Match output byte-identical to the
// boolean linear reference across nil and random masks, queries naming the
// database's context or another, and MinScore/topK sweeps, at tuple lengths
// inside,
// on and just past the one-, two- and three-word strides and beyond them.
func TestMatchEquivalence(t *testing.T) {
	rng := stats.NewRNG(2300)
	for _, tupleLen := range []int{90, 128, 130, 190, 192, 300} {
		for _, minScore := range []float64{0, 0.05, 0.3, 0.7, 1} {
			for _, nEntries := range []int{0, 1, 30, 200} {
				db := buildRandomDB(rng.Fork(int64(nEntries)+int64(minScore*1000)), nEntries, tupleLen, minScore)
				for rep := 0; rep < 24; rep++ {
					density := []float64{0, 0.08, 0.3, 0.9}[rep%4]
					tuple := randomTuple(rng, tupleLen, density)
					var known []bool
					if rep%3 == 2 {
						known = []bool(randomTuple(rng, tupleLen, 0.8))
					}
					ip, wl := queryContext(rng, db)
					topK := []int{0, 1, 5, 1000}[rep%4]
					tag := fmt.Sprintf("len=%d minScore=%v nEntries=%d rep=%d", tupleLen, minScore, nEntries, rep)
					matchBothPaths(t, db, tuple, known, ip, wl, topK, tag)
				}
			}
		}
	}
}

// FuzzMatchEquivalence drives the scan-vs-linear-reference equivalence from
// arbitrary fuzz inputs: whatever database of one context, MinScore and
// query the fuzzer concocts — the query's context drawn against the
// database's — the packed scan must match the reference byte for byte. Tuples
// run to 320 coordinates, so both strides the word count unrolls (two and
// three words) and the word loop every other stride runs (one, four and
// five) are reached.
func FuzzMatchEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint16(30), uint8(3), uint8(5), false)
	f.Add(int64(7), uint8(0), uint16(1), uint8(0), uint8(0), true)
	f.Add(int64(42), uint8(100), uint16(64), uint8(10), uint8(1), false)
	f.Add(int64(3), uint8(150), uint16(190), uint8(4), uint8(0), false)
	f.Add(int64(5), uint8(90), uint16(300), uint8(2), uint8(7), true)
	f.Fuzz(func(t *testing.T, seed int64, nEntries uint8, tupleLen uint16, minScoreTenths, topK uint8, masked bool) {
		rng := stats.NewRNG(seed)
		n := int(tupleLen) % 321 // strides 0-5: every unrolled arm and the loop
		minScore := float64(minScoreTenths%11) / 10
		db := buildRandomDB(rng, int(nEntries), n, minScore)
		tuple := randomTuple(rng, n, []float64{0, 0.1, 0.5}[rng.Intn(3)])
		var known []bool
		if masked {
			known = []bool(randomTuple(rng, n, 0.7))
		}
		ip, wl := queryContext(rng, db)
		matchBothPaths(t, db, tuple, known, ip, wl, int(topK), "fuzz")
	})
}

// FuzzSimilarity checks the similarity invariants for arbitrary same-length
// tuples. Its third input is unused: it keeps the (string, string, int)
// layout corpus entries are written in.
func FuzzSimilarity(f *testing.F) {
	f.Add("", "", 0)
	f.Add("10", "01", 1)
	f.Add("111", "111", 2)
	f.Fuzz(func(t *testing.T, as, bs string, _ int) {
		a, errA := ParseTuple(as)
		b, errB := ParseTuple(bs)
		if errA != nil || errB != nil {
			return
		}
		s, err := Similarity(a, b)
		if len(a) != len(b) {
			if err == nil {
				t.Fatal("length mismatch accepted")
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if s < 0 || s > 1 {
			t.Fatalf("similarity %v out of [0,1]", s)
		}
		s2, _ := Similarity(b, a)
		if s != s2 {
			t.Fatalf("asymmetric: %v vs %v", s, s2)
		}
		self, _ := Similarity(a, a)
		if self != 1 {
			t.Fatalf("self-similarity %v != 1", self)
		}
	})
}
