package signature

import (
	"reflect"
	"sort"
	"testing"

	"invarnetx/internal/stats"
)

// sortMatches applies MatchMasked's result ordering: score descending,
// problem ascending, then insertion order. The stable sort over an
// insertion-ordered sequence realises the same total order MatchMasked's
// selector imposes, so reference and production orderings are identical
// even for fully tied entries.
func sortMatches(ms []Match) {
	sort.SliceStable(ms, func(a, b int) bool {
		if ms[a].Score != ms[b].Score {
			return ms[a].Score > ms[b].Score
		}
		return ms[a].Problem < ms[b].Problem
	})
}

func randomTuple(rng *stats.RNG, n int, density float64) Tuple {
	t := make(Tuple, n)
	for i := range t {
		t[i] = rng.Float64() < density
	}
	return t
}

// TestBitsetMatchesBoolSimilarity: for random tuples and masks, every
// measure's packed-popcount score must be bit-identical to the boolean
// reference — including the degenerate corners (all-zero tuples, all-false
// masks, empty tuples, word-boundary lengths).
func TestBitsetMatchesBoolSimilarity(t *testing.T) {
	rng := stats.NewRNG(2200)
	lengths := []int{0, 1, 7, 63, 64, 65, 128, 200}
	densities := []float64{0, 0.05, 0.3, 0.9, 1}
	for _, n := range lengths {
		for _, da := range densities {
			for _, db := range densities {
				a := randomTuple(rng, n, da)
				b := randomTuple(rng, n, db)
				var masks [][]bool
				masks = append(masks, nil)
				if n > 0 {
					masks = append(masks,
						[]bool(randomTuple(rng, n, 0.7)),
						make([]bool, n)) // all-unknown
				}
				for _, known := range masks {
					pb := appendPacked(nil, b)
					for _, m := range []Measure{Jaccard, Hamming, Cosine} {
						want, err := MaskedSimilarity(a, b, known, m)
						if err != nil {
							t.Fatal(err)
						}
						var buf [2 * stackWords]uint64
						q := newQuery(&buf, a, known, m)
						if got := q.score(q.overlap(pb, popcount(pb))); got != want {
							t.Errorf("n=%d m=%v masked=%v: bit %v != bool %v", n, m, known != nil, got, want)
						}
					}
				}
			}
		}
	}
}

// TestMatchMaskedBitsetEquivalence: the packed scan must return the exact
// matches (entries, order, scores) a reference MaskedSimilarity scan would,
// across measures, masks, MinScore thresholds and stale-length entries.
func TestMatchMaskedBitsetEquivalence(t *testing.T) {
	rng := stats.NewRNG(2201)
	const n = 70
	for _, minScore := range []float64{0, 0.4} {
		db := &DB{MinScore: minScore}
		for i := 0; i < 40; i++ {
			ln := n
			if i%9 == 0 {
				ln = n - 3 // stale entry from an older invariant set
			}
			db.Add(Entry{
				Tuple:    randomTuple(rng, ln, 0.15),
				Problem:  string(rune('a' + i%5)),
				IP:       []string{"", "10.0.0.1", "10.0.0.2"}[i%3],
				Workload: []string{"wc", "tpcds"}[i%2],
			})
		}
		for rep := 0; rep < 20; rep++ {
			tuple := randomTuple(rng, n, []float64{0, 0.1, 0.5}[rep%3])
			var known []bool
			if rep%2 == 1 {
				known = []bool(randomTuple(rng, n, 0.8))
			}
			ip := []string{"", "10.0.0.1"}[rep%2]
			m := []Measure{Jaccard, Hamming, Cosine}[rep%3]
			got, err := db.MatchMasked(tuple, known, ip, "wc", m, 5)
			if err != nil {
				t.Fatal(err)
			}
			want, err := matchLinear(db.Entries(), db.MinScore, tuple, known, ip, "wc", m, 5)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("minScore=%v rep=%d: packed scan %+v != reference %+v", minScore, rep, got, want)
			}
		}
		scanned, early := db.ScanStats()
		if scanned == 0 {
			t.Error("scan counter never advanced")
		}
		if early < 0 || early > scanned {
			t.Errorf("early exits %d outside [0, %d]", early, scanned)
		}
	}
}

// TestMatchEarlyExitZeroQuery: the healthy-window scan (all-zero tuple, no
// mask) must resolve every same-length entry without the word loop.
func TestMatchEarlyExitZeroQuery(t *testing.T) {
	rng := stats.NewRNG(2202)
	db := &DB{}
	for i := 0; i < 25; i++ {
		db.Add(Entry{Tuple: randomTuple(rng, 64, 0.2), Problem: "p", IP: "n", Workload: "w"})
	}
	if _, err := db.Match(make(Tuple, 64), "n", "w", Jaccard, 0); err != nil {
		t.Fatal(err)
	}
	scanned, early := db.ScanStats()
	if scanned != 25 || early != 25 {
		t.Errorf("zero-query scan: scanned=%d early=%d, want 25/25", scanned, early)
	}
}
