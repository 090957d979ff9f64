package signature

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"invarnetx/internal/stats"
)

// MaskedSimilarity is the reference similarity the packed popcount scoring is
// pinned against: Jaccard by a boolean walk over two equal-length tuples, in
// [0, 1], restricted to the coordinates whose invariants were checkable under
// the observed window. known[i] false excludes coordinate i from the
// comparison entirely (an unknown invariant is neither a match nor a
// mismatch); a nil mask compares every coordinate. Two all-zero tuples are
// fully similar; when no coordinate is known there is no evidence at all,
// and the similarity is 0.
func MaskedSimilarity(a, b Tuple, known []bool) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("signature: tuple lengths %d and %d differ", len(a), len(b))
	}
	if known != nil && len(known) != len(a) {
		return 0, fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), len(a))
	}
	var both, either, compared int
	for i := range a {
		if known != nil && !known[i] {
			continue
		}
		compared++
		if a[i] && b[i] {
			both++
		}
		if a[i] || b[i] {
			either++
		}
	}
	switch {
	case known != nil && compared == 0:
		return 0, nil
	case either == 0:
		return 1, nil
	}
	return float64(both) / float64(either), nil
}

// Match is MatchMasked over a fully known window, and Similarity is
// MaskedSimilarity likewise: the spellings most tests here use. No product
// code calls either, so they are declared with the tests.
func (db *DB) Match(tuple Tuple, ip, workloadType string, topK int) ([]Match, error) {
	return db.MatchMasked(tuple, nil, ip, workloadType, Jaccard, topK)
}

func Similarity(a, b Tuple) (float64, error) {
	return MaskedSimilarity(a, b, nil)
}

// matchLinear is the reference retrieval every production path is pinned
// against: a full scan over a database's Entries() with per-entry context
// filtering, scored by the boolean MaskedSimilarity walk and ranked by a
// stable sort — nothing of the packed store, its buckets or the reducers, so
// the kernel is never checking itself.
func matchLinear(entries []Entry, minScore float64, tuple Tuple, known []bool, ip, workloadType string, topK int) ([]Match, error) {
	if known != nil && len(known) != len(tuple) {
		return nil, fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), len(tuple))
	}
	scoped := 0
	var out []Match
	for _, e := range entries {
		if e.IP != ip || e.Workload != workloadType {
			continue
		}
		scoped++
		if len(e.Tuple) != len(tuple) {
			continue // a stale signature from an older invariant set
		}
		s, err := MaskedSimilarity(tuple, e.Tuple, known)
		if err != nil {
			return nil, err
		}
		if s >= minScore {
			out = append(out, Match{Entry: e, Score: s})
		}
	}
	if scoped == 0 {
		return nil, ErrEmpty
	}
	sortMatches(out)
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out, nil
}

// rankReference is the composition Rank replaced: the full ranked match
// list of the database's own context, one best match per problem, cut to
// topK.
func rankReference(db *DB, tuple Tuple, known []bool, topK int) ([]Match, error) {
	matches, err := db.MatchMasked(tuple, known, db.ip, db.workload, Jaccard, 0)
	if err != nil {
		return nil, err
	}
	ranked := BestProblem(matches)
	if topK > 0 && len(ranked) > topK {
		ranked = ranked[:topK]
	}
	if len(ranked) == 0 {
		return nil, nil
	}
	return ranked, nil
}

// sameOutcome fails the test unless two retrievals returned byte-identical
// matches and the same error.
func sameOutcome(t *testing.T, tag string, got []Match, gotErr error, want []Match, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err %v, reference err %v", tag, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", tag, got, want)
	}
}

// rankBothPaths pins Rank to rankReference for one query.
func rankBothPaths(t *testing.T, db *DB, tuple Tuple, known []bool, topK int, tag string) {
	t.Helper()
	got, gotErr := db.Rank(tuple, known, topK)
	want, wantErr := rankReference(db, tuple, known, topK)
	sameOutcome(t, tag, got, gotErr, want, wantErr)
}

// The operation contexts test databases and queries are drawn from: the
// zero context's empty fields among them.
var (
	testIPs       = []string{"", "10.0.0.1", "10.0.0.2", "10.0.0.3"}
	testWorkloads = []string{"", "wc", "tpcds", "sort"}
)

// contextDB is an empty database of a context drawn from the test pool.
func contextDB(rng *stats.RNG, minScore float64) *DB {
	return &DB{workload: testWorkloads[rng.Intn(len(testWorkloads))], ip: testIPs[rng.Intn(len(testIPs))], MinScore: minScore}
}

// queryContext is the context a query names: mostly the database's own, and
// one time in four any context of the pool — db's own, by chance, among
// them.
func queryContext(rng *stats.RNG, db *DB) (ip, workload string) {
	if rng.Intn(4) > 0 {
		return db.ip, db.workload
	}
	return testIPs[rng.Intn(len(testIPs))], testWorkloads[rng.Intn(len(testWorkloads))]
}

// buildTiedDB populates a DB whose scores collide constantly: short tuples
// drawn from a handful of patterns, stored repeatedly under the same and
// under different problems, at the query length and a stale one.
func buildTiedDB(rng *stats.RNG, nEntries, tupleLen int, minScore float64) *DB {
	db := contextDB(rng, minScore)
	patterns := make([]Tuple, 6)
	for i := range patterns {
		patterns[i] = randomTuple(rng, tupleLen, []float64{0, 0.2, 0.5}[i%3])
	}
	for i := 0; i < nEntries; i++ {
		tu := patterns[rng.Intn(len(patterns))]
		if rng.Intn(8) == 0 {
			tu = randomTuple(rng, tupleLen+3, 0.3) // stale length
		}
		db.Add(fmt.Sprintf("p%02d", rng.Intn(9)), tu)
	}
	return db
}

// TestRankEqualsBestProblemOfMatch pins the one-pass ranking to the
// composition it replaced — same scores to the bit, same problem order, same
// representative entry — across masks, thresholds, contexts (an empty field
// among them), stale-length buckets, heavy score ties, the all-zero query
// and every topK regime, at tuple lengths of one to five words.
func TestRankEqualsBestProblemOfMatch(t *testing.T) {
	rng := stats.NewRNG(1300)
	for _, tupleLen := range []int{10, 70, 128, 130, 190, 192, 300} {
		for _, minScore := range []float64{0, 0.3, 1} {
			for _, build := range []func(*stats.RNG, int, int, float64) *DB{buildRandomDB, buildTiedDB} {
				db := build(rng.Fork(int64(tupleLen)+int64(minScore*10)), 250, tupleLen, minScore)
				for rep := 0; rep < 36; rep++ {
					tuple := randomTuple(rng, tupleLen, []float64{0, 0.1, 0.4, 0.9}[rep%4])
					if rep%5 == 0 {
						tuple = db.Entries()[rng.Intn(db.Len())].Tuple // exact hits, score 1
						if len(tuple) != tupleLen {
							tuple = make(Tuple, tupleLen)
						}
					}
					var known []bool
					switch rep % 3 {
					case 1:
						known = []bool(randomTuple(rng, tupleLen, 0.8))
					case 2:
						if rep%2 == 0 {
							known = make([]bool, tupleLen) // nothing checkable
						}
					}
					topK := []int{0, 1, 5, 1000}[(rep/3)%4]
					tag := fmt.Sprintf("len=%d minScore=%v rep=%d ip=%q wl=%q topK=%d masked=%v",
						tupleLen, minScore, rep, db.ip, db.workload, topK, known != nil)
					rankBothPaths(t, db, tuple, known, topK, tag)
				}
			}
		}
	}
	// Error outcomes are the composition's too.
	db := buildTiedDB(rng, 20, 10, 0)
	empty := &DB{workload: "wc", ip: "10.0.0.1"}
	rankBothPaths(t, empty, make(Tuple, 10), nil, 0, "empty db")
	rankBothPaths(t, db, make(Tuple, 10), make([]bool, 4), 0, "bad mask")
	rankBothPaths(t, empty, make(Tuple, 10), make([]bool, 4), 0, "bad mask, empty db")
	if _, err := empty.Rank(make(Tuple, 10), nil, 0); err != ErrEmpty {
		t.Errorf("Rank on an empty database: %v, want ErrEmpty", err)
	}
}

// FuzzRankEquivalence drives the same equivalence from arbitrary fuzz
// inputs, over tuples of up to 320 coordinates (strides one to five).
func FuzzRankEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint16(30), uint8(3), uint8(5), false, false)
	f.Add(int64(7), uint8(0), uint16(1), uint8(0), uint8(0), true, false)
	f.Add(int64(42), uint8(200), uint16(8), uint8(0), uint8(1), false, true)
	f.Add(int64(9), uint8(120), uint16(65), uint8(10), uint8(3), true, true)
	f.Add(int64(11), uint8(200), uint16(190), uint8(0), uint8(5), false, false)
	f.Add(int64(13), uint8(150), uint16(300), uint8(3), uint8(0), true, true)
	f.Fuzz(func(t *testing.T, seed int64, nEntries uint8, tupleLen uint16, minScoreTenths, topK uint8, masked, tied bool) {
		rng := stats.NewRNG(seed)
		n := int(tupleLen) % 321 // strides 0-5: every unrolled arm and the loop
		minScore := float64(minScoreTenths%11) / 10
		build := buildRandomDB
		if tied {
			build = buildTiedDB
		}
		db := build(rng, int(nEntries), n, minScore)
		tuple := randomTuple(rng, n, []float64{0, 0.1, 0.5}[rng.Intn(3)])
		var known []bool
		if masked {
			known = []bool(randomTuple(rng, n, 0.7))
		}
		rankBothPaths(t, db, tuple, known, int(topK), "fuzz")
	})
}

// TestEntryFingerprintGolden pins Fingerprint to literal values captured
// from the boolean-walk implementation it replaced: the fingerprint is the
// dedup identity Merge keys on, so hashing from packed words must not move
// it — at any tuple length around a word boundary.
func TestEntryFingerprintGolden(t *testing.T) {
	pattern := func(n int) Tuple {
		tu := make(Tuple, n)
		for i := range tu {
			tu[i] = (i*i+i/7)%5 == 0
		}
		return tu
	}
	for _, c := range []struct {
		problem string
		n       int
		want    uint64
	}{
		{"", 0, 0xaf64724c8602eb6e},
		{"cpu-hog", 0, 0xc2853f6d06406aff},
		{"cpu-hog", 1, 0xc8d594419f757c0a},
		{"mem-hog", 63, 0x33366acd072fd55d},
		{"net-drop", 64, 0xf5cf76a89f9a3856},
		{"net-delay", 65, 0xd48609e177cb760d},
		{"disk-hog", 128, 0x27d3d08033ea019f},
		{"synth-007", 190, 0x183b51c2636337ab},
	} {
		e := Entry{Tuple: pattern(c.n), Problem: c.problem, IP: "10.0.0.2", Workload: "wordcount"}
		if got := e.Fingerprint(); got != c.want {
			t.Errorf("Fingerprint(%q, %d coordinates) = %#x, want %#x", c.problem, c.n, got, c.want)
		}
		// The stored form hashes to the same identity: a round trip through
		// the packed store dedupes against the original.
		db := NewDB(e.Workload, e.IP)
		db.Add(e.Problem, e.Tuple)
		if got := db.Entries()[0].Fingerprint(); got != c.want {
			t.Errorf("stored Fingerprint(%q, %d coordinates) = %#x, want %#x", c.problem, c.n, got, c.want)
		}
		if db.Merge(e.Problem, e.Tuple) {
			t.Errorf("Merge(%q, %d coordinates) did not dedupe against the stored entry", c.problem, c.n)
		}
		// And so does the tuple as a store file spells it: MergeText hashes
		// the same bytes.
		if added, err := db.MergeText(e.Problem, []byte(e.Tuple.String())); err != nil || added {
			t.Errorf("MergeText(%q, %d coordinates) = %v, %v; want a dedupe against the stored entry", c.problem, c.n, added, err)
		}
	}
	all := make(Tuple, 190)
	for i := range all {
		all[i] = true
	}
	if got := (Entry{Tuple: all, Problem: "x"}).Fingerprint(); got != 0xfb23f8fc95b737e2 {
		t.Errorf("Fingerprint(all ones) = %#x", got)
	}
}

// TestMatchResultsDoNotAliasStore: a returned tuple is the caller's copy.
// Writing through it must leave later queries, Entries(), fingerprints and
// the dedup identity exactly as they were.
func TestMatchResultsDoNotAliasStore(t *testing.T) {
	rng := stats.NewRNG(1301)
	for _, minScore := range []float64{0, 0.3} { // unfiltered and MinScore-filtered
		db := &DB{workload: "w", ip: "n", MinScore: minScore}
		var stored []Entry
		for i := 0; i < 12; i++ {
			e := Entry{Tuple: randomTuple(rng, 70, 0.3), Problem: fmt.Sprintf("p%d", i%4), IP: "n", Workload: "w"}
			stored = append(stored, e)
			db.Add(e.Problem, e.Tuple)
		}
		q := stored[3].Tuple
		fingerprints := func() []uint64 {
			var out []uint64
			for _, e := range db.Entries() {
				out = append(out, e.Fingerprint())
			}
			return out
		}
		query := func() (matches, ranked []Match) {
			matches, err := db.Match(q, "n", "w", 0)
			if err != nil {
				t.Fatal(err)
			}
			ranked, err = db.Rank(q, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			return matches, ranked
		}
		wantMatches, wantRanked := query()
		wantEntries, wantFPs := db.Entries(), fingerprints()

		scribble, scribbleRanked := query()
		for _, ms := range [][]Match{scribble, scribbleRanked} {
			for _, m := range ms {
				for k := range m.Tuple {
					m.Tuple[k] = !m.Tuple[k]
				}
				_ = append(m.Tuple, true) // must not reach a neighbour either
			}
		}

		gotMatches, gotRanked := query()
		if !reflect.DeepEqual(gotMatches, wantMatches) || !reflect.DeepEqual(gotRanked, wantRanked) {
			t.Errorf("minScore=%v: query results changed after writing through returned tuples", minScore)
		}
		if !reflect.DeepEqual(db.Entries(), wantEntries) {
			t.Errorf("minScore=%v: Entries() changed after writing through returned tuples", minScore)
		}
		if !reflect.DeepEqual(fingerprints(), wantFPs) {
			t.Errorf("minScore=%v: fingerprints changed after writing through returned tuples", minScore)
		}
		for _, e := range stored {
			if db.Merge(e.Problem, e.Tuple) {
				t.Errorf("minScore=%v: Merge no longer dedupes %s after writing through returned tuples", minScore, e.Problem)
			}
		}
	}
}

// signatureBenchDB is the retrieval benchmark fixture: n sparse
// 190-coordinate signatures (one coordinate per trained pair at 20 metrics
// dense) of problems distinct problems under one operation context, plus a
// batch of 32 query tuples. One benchmark op is the whole batch: a single
// retrieval is microseconds, too short for a stable figure.
func signatureBenchDB(n, problems int, minScore float64) (*DB, []Tuple) {
	const tupleLen = 190
	rng := stats.NewRNG(11)
	mkTuple := func(ones int) Tuple {
		t := make(Tuple, tupleLen)
		for k := 0; k < ones; k++ {
			t[rng.Intn(tupleLen)] = true
		}
		return t
	}
	db := &DB{workload: "wordcount", ip: "10.0.0.2", MinScore: minScore}
	for i := 0; i < n; i++ {
		tuple := mkTuple(2 + rng.Intn(20))
		db.Add(fmt.Sprintf("fault-%d", i%problems), tuple)
	}
	queries := make([]Tuple, 32)
	for i := range queries {
		queries[i] = mkTuple(12)
	}
	return db, queries
}

// TestRankAllocsDoNotScaleWithScope: Rank allocates for the per-problem
// reducer and the winners it returns — never per scanned entry.
// The gate that keeps an O(entries) materialisation from coming back.
func TestRankAllocsDoNotScaleWithScope(t *testing.T) {
	allocs := func(n int) float64 {
		db, queries := signatureBenchDB(n, 200, 0)
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Rank(queries[0], nil, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1000), allocs(20000)
	if large > small+2 {
		t.Errorf("Rank allocs/op grew with the database: %v at n=1000, %v at n=20000", small, large)
	}
	if small > 16 {
		t.Errorf("Rank allocs/op = %v at n=1000, want a handful", small)
	}
}

// BenchmarkSignatureLinearScan times the reference retrieval over
// BenchmarkSignatureMatch's fixture — the denominator of the packed scan's
// speedup. `make bench-once` runs it once (a few seconds on 2 cores, the
// slowest benchmark of that step); to time it:
//
//	go test -run '^$' -bench SignatureLinearScan -benchtime 20x ./internal/signature
func BenchmarkSignatureLinearScan(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, 14, 0.3)
			entries := db.Entries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := matchLinear(entries, db.MinScore, q, nil, "10.0.0.2", "wordcount", 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSignatureMatch measures filtered signature retrieval (MinScore
// 0.3, top 5) over databases of 100 to 100 000 entries in one context.
// Every query is one scan of the query-length bucket — each entry
// scored by popcount, then filtered at the floor — so time is linear in n. The boolean linear-scan reference is
// BenchmarkSignatureLinearScan.
func BenchmarkSignatureMatch(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, 14, 0.3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.MatchMasked(q, nil, "10.0.0.2", "wordcount", Jaccard, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSignatureRank measures what a verdict's cause inference costs
// once the database has grown and nothing is filtered (MinScore 0, the
// default): every entry is scored by the bucket scan and reduced to
// one winner per problem. Time is linear in n; allocs/op must not be — the
// per-entry materialisation this replaced allocated and sorted the database.
// The fixture's 190-coordinate tuples are the three-word stride. With the
// scan taking a bucket a chunk at a time (stride-unrolled counts, the
// Jaccard closed form, the reducer fixed before the loop) one op is
// ≈ 8.4 ms at n = 20 000 and ≈ 0.96 ms at n = 1 000; the single loop before
// it, with a score call and an interface call per entry, took ≈ 17.7 ms and
// ≈ 1.47 ms (2-core Intel Xeon, -cpu 1, medians of 21 alternated runs of
// 20 ops each).
func BenchmarkSignatureRank(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			db, queries := signatureBenchDB(n, 200, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range queries {
					if _, err := db.Rank(q, nil, 5); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSignatureRetrievalAllocs pins the per-query allocation counts of the two
// retrieval entry points on the benchmark fixture. Rank's count is independent
// of the database size, so a per-entry materialisation coming back (what Rank
// replaced) fails here on any machine, where a time budget would need a quiet
// one: 7 per query — the per-problem reducer's slots, the top-5 heap growing
// to five keys (four), and the ranked result's tuples and matches. A filtered
// Match (MinScore 0.3) allocates nothing when nothing passes the floor, as
// here: its selector stays on the stack, and nothing is allocated per scanned
// entry. Neither reducer escapes through the scan; behind an interface they
// did, at 8 and 1 per query.
func TestSignatureRetrievalAllocs(t *testing.T) {
	perBatch := func(db *DB, queries []Tuple, retrieve func(*DB, Tuple) error) float64 {
		return testing.AllocsPerRun(5, func() {
			for _, q := range queries {
				if err := retrieve(db, q); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{1000, 20000} {
		db, queries := signatureBenchDB(n, 200, 0)
		got := perBatch(db, queries, func(db *DB, q Tuple) error {
			_, err := db.Rank(q, nil, 5)
			return err
		})
		if want := float64(7 * len(queries)); got != want {
			t.Errorf("Rank over n=%d: %v allocs per %d queries, want %v", n, got, len(queries), want)
		}
	}
	for _, n := range []int{100, 1000} {
		db, queries := signatureBenchDB(n, 14, 0.3)
		got := perBatch(db, queries, func(db *DB, q Tuple) error {
			_, err := db.MatchMasked(q, nil, "10.0.0.2", "wordcount", Jaccard, 5)
			return err
		})
		if want := float64(0); got != want {
			t.Errorf("Match over n=%d: %v allocs per %d queries, want %v", n, got, len(queries), want)
		}
	}
}

// TestSignatureStoreFootprint pins what a stored signature costs in memory
// on the benchmark fixture's shape (20 000 entries of 190 coordinates in one
// context, built with Merge as a restore or an import builds it): the
// 24-byte packed tuple, three 4-byte columns, a 16-byte locator and the
// 8-byte fingerprint Merge dedups on, plus slice and map growth slack — and
// nothing per coordinate or per context string. A second copy of the tuples
// or of the context coming back (the store once held both) fails here.
// Merging an entry the store already holds allocates nothing.
func TestSignatureStoreFootprint(t *testing.T) {
	src, _ := signatureBenchDB(20000, 200, 0)
	entries := src.Entries()
	src = nil
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db := NewDB("wordcount", "10.0.0.2")
	for _, e := range entries {
		db.Merge(e.Problem, e.Tuple)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEntry := float64(after.HeapAlloc-before.HeapAlloc) / float64(db.Len())
	t.Logf("%d signatures, %.1f heap bytes each", db.Len(), perEntry)
	if perEntry > 120 {
		t.Errorf("%.1f heap bytes per stored signature, want at most 120", perEntry)
	}
	e := entries[len(entries)/2]
	if allocs := testing.AllocsPerRun(100, func() { db.Merge(e.Problem, e.Tuple) }); allocs != 0 {
		t.Errorf("Merge of a stored entry: %v allocs, want 0", allocs)
	}
}
