package signature

import (
	"fmt"
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

// TestBitsetMatchesBoolSimilarity: for random tuples and masks, the
// packed-popcount score must be bit-identical to the boolean reference — including the degenerate corners (all-zero tuples, all-false
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
				// b is the one entry of its bucket, scored by the scan's
				// own loop and read back from the reducer.
				one := &DB{}
				one.Add("p", b)
				bk := one.order[0].b
				for _, known := range masks {
					want, err := MaskedSimilarity(a, b, known)
					if err != nil {
						t.Fatal(err)
					}
					var buf [2 * stackWords]uint64
					q := newQuery(&buf, a, known)
					r := newRanker(1)
					one.scanBucket(bk, &q, r, nil)
					if got := r[0].score; got != want {
						t.Errorf("n=%d masked=%v: bit %v != bool %v", n, known != nil, got, want)
					}
				}
			}
		}
	}
}

// TestMatchMaskedBitsetEquivalence: the packed scan must return the exact
// matches (entries, order, scores) a reference MaskedSimilarity scan would,
// across masks, MinScore thresholds, stale-length entries and queries naming
// the database's context or another.
func TestMatchMaskedBitsetEquivalence(t *testing.T) {
	rng := stats.NewRNG(2201)
	const n = 70
	for _, minScore := range []float64{0, 0.4} {
		db := &DB{workload: "wc", MinScore: minScore}
		for i := 0; i < 40; i++ {
			ln := n
			if i%9 == 0 {
				ln = n - 3 // stale entry from an older invariant set
			}
			db.Add(string(rune('a'+i%5)), randomTuple(rng, ln, 0.15))
		}
		for rep := 0; rep < 20; rep++ {
			tuple := randomTuple(rng, n, []float64{0, 0.1, 0.5}[rep%3])
			var known []bool
			if rep%2 == 1 {
				known = []bool(randomTuple(rng, n, 0.8))
			}
			ip := []string{"", "10.0.0.1"}[rep%2]
			got, gotErr := db.MatchMasked(tuple, known, ip, "wc", Jaccard, 5)
			want, wantErr := matchLinear(db.Entries(), db.MinScore, tuple, known, ip, "wc", 5)
			if gotErr != wantErr || !reflect.DeepEqual(got, want) {
				t.Errorf("minScore=%v rep=%d: packed scan %+v (%v) != reference %+v (%v)", minScore, rep, got, gotErr, want, wantErr)
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
	db := NewDB("w", "n")
	for i := 0; i < 25; i++ {
		db.Add("p", randomTuple(rng, 64, 0.2))
	}
	if _, err := db.Match(make(Tuple, 64), "n", "w", 0); err != nil {
		t.Fatal(err)
	}
	scanned, early := db.ScanStats()
	if scanned != 25 || early != 25 {
		t.Errorf("zero-query scan: scanned=%d early=%d, want 25/25", scanned, early)
	}
}

// TestScanStatsExact pins the scan counters behind /v1/stats sigScan* and the
// benchmark's signature.scan_entries_per_query / early_exit_ratio to the
// exact (scanned, early) tallies of a fixed fixture — the entries of one
// context of a fixed labelling history — for Rank and MatchMasked alike: a
// stale-length bucket, the zero query, a MinScore floor (which
// filters without resolving anything early: only the stale-length skips
// count) and a masked query. A kernel change that resolves a different set
// of entries early moves them.
func TestScanStatsExact(t *testing.T) {
	const n = 130 // three words per tuple
	build := func(minScore float64, ip, wl string) *DB {
		rng := stats.NewRNG(3400)
		db := &DB{workload: wl, ip: ip, MinScore: minScore}
		for i := 0; i < 120; i++ {
			ln := n
			if i%11 == 0 {
				ln = n - 4 // stale entry from an older invariant set
			}
			tuple := randomTuple(rng, ln, []float64{0, 0.05, 0.2, 0.5}[i%4])
			if []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}[i%3] == ip && []string{"wc", "sort"}[i%2] == wl {
				db.Add(fmt.Sprintf("p%d", i%7), tuple)
			}
		}
		return db
	}
	rng := stats.NewRNG(3401)
	query := randomTuple(rng, n, 0.1)
	known := []bool(randomTuple(rng, n, 0.8))
	zero := make(Tuple, n)
	cases := []struct {
		name           string
		minScore       float64
		tuple          Tuple
		known          []bool
		ip, wl         string
		scanned, early int64
	}{
		{"clean query", 0, query, nil, "10.0.0.1", "wc", 20, 2},
		{"zero query", 0, zero, nil, "10.0.0.1", "wc", 20, 20},
		{"zero query, MinScore", 0.3, zero, nil, "10.0.0.2", "sort", 20, 20},
		{"MinScore pruning", 0.3, query, nil, "10.0.0.2", "sort", 20, 1},
		{"masked", 0.3, query, known, "10.0.0.2", "sort", 20, 1},
	}
	for _, c := range cases {
		for _, rank := range []bool{false, true} {
			db := build(c.minScore, c.ip, c.wl)
			var err error
			if rank {
				_, err = db.Rank(c.tuple, c.known, 3)
			} else {
				_, err = db.MatchMasked(c.tuple, c.known, c.ip, c.wl, Jaccard, 3)
			}
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if scanned, early := db.ScanStats(); scanned != c.scanned || early != c.early {
				t.Errorf("%s (rank=%v): scanned=%d early=%d, want %d/%d", c.name, rank, scanned, early, c.scanned, c.early)
			}
		}
	}
}

// TestMinScorePruneBoundary: the MinScore floor is inclusive and exact. Nested
// prefix tuples score every overlap ratio the query admits, so with the
// floor set to each prefix's score in turn, a floor compared off by one ulp
// or one entry drops (or keeps) an entry the reference does not.
func TestMinScorePruneBoundary(t *testing.T) {
	const n = 150
	prefix := func(k int) Tuple {
		tu := make(Tuple, n)
		for i := 0; i < k; i++ {
			tu[i] = true
		}
		return tu
	}
	for _, ones := range []int{1, 7, 64, 149} {
		query := prefix(ones)
		for k := 0; k <= n; k += 7 {
			probe := NewDB("wl", "ip")
			probe.Add("p", prefix(k))
			ms, err := probe.Match(query, "ip", "wl", 0)
			if err != nil {
				t.Fatal(err)
			}
			db := &DB{workload: "wl", ip: "ip", MinScore: ms[0].Score}
			for j := 0; j <= n; j++ {
				db.Add(fmt.Sprintf("p%d", j%5), prefix(j))
			}
			tag := fmt.Sprintf("ones=%d floor=score(prefix %d)=%v", ones, k, db.MinScore)
			matchBothPaths(t, db, query, nil, "ip", "wl", 0, tag)
			rankBothPaths(t, db, query, nil, 0, tag)
		}
	}
}
