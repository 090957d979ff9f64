// Package signature implements the signature database of the paper (§2,
// §3.3): each investigated performance problem is stored as a binary
// violation tuple under its operation context, in the four-tuple format
// (binary tuple, problem name, ip, workload type). Diagnosis retrieves the
// stored signatures most similar to an observed violation tuple and reports
// their problems as the ranked root-cause list, most probable first.
package signature

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Tuple is a binary violation tuple. Its coordinate system is the sorted
// invariant pair list of the operation context it was computed under.
type Tuple []bool

// String renders the tuple as a 0/1 string (for logs and persistence).
func (t Tuple) String() string {
	var b strings.Builder
	for _, v := range t {
		if v {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// ParseTuple inverts Tuple.String. It takes the 0/1 text as a string or as
// the bytes of a file being read, without converting one to the other.
func ParseTuple[S string | []byte](s S) (Tuple, error) {
	t := make(Tuple, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '0' && c != '1' {
			return nil, fmt.Errorf("signature: invalid tuple character %q", c)
		}
		t[i] = c == '1'
	}
	return t, nil
}

// Ones returns the number of violations in the tuple.
func (t Tuple) Ones() int {
	n := 0
	for _, v := range t {
		if v {
			n++
		}
	}
	return n
}

// Measure selects the tuple-similarity function.
type Measure int

const (
	// Jaccard similarity |a∧b| / |a∨b| — the default; it focuses on the
	// violated coordinates, which carry the signal (most invariants hold
	// under any single fault, so Hamming similarity is dominated by
	// uninformative zeros).
	Jaccard Measure = iota
	// Hamming similarity: fraction of matching coordinates.
	Hamming
	// Cosine similarity of the tuples as 0/1 vectors.
	Cosine
)

func (m Measure) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Hamming:
		return "hamming"
	case Cosine:
		return "cosine"
	default:
		return fmt.Sprintf("measure(%d)", int(m))
	}
}

// check rejects a measure outside the three defined ones.
func (m Measure) check() error {
	if m != Jaccard && m != Hamming && m != Cosine {
		return fmt.Errorf("signature: unknown measure %v", m)
	}
	return nil
}

// similarityFromCounts turns the comparison tallies into the final score.
// The packed popcount path (query.score in bitset.go) and the tests' boolean
// reference walk (MaskedSimilarity) produce identical integer tallies and
// funnel through here, so the two return bit-identical floats.
func similarityFromCounts(both, either, equal, onesA, onesB, compared int, masked bool, m Measure) (float64, error) {
	if masked && compared == 0 {
		return 0, nil
	}
	switch m {
	case Jaccard:
		if either == 0 {
			return 1, nil
		}
		return float64(both) / float64(either), nil
	case Hamming:
		if compared == 0 {
			return 1, nil
		}
		return float64(equal) / float64(compared), nil
	case Cosine:
		if onesA == 0 || onesB == 0 {
			if onesA == onesB {
				return 1, nil
			}
			return 0, nil
		}
		return float64(both) / sqrtProd(onesA, onesB), nil
	default:
		return 0, m.check()
	}
}

// sqrtProd returns sqrt(a*b) for the cosine denominator.
func sqrtProd(a, b int) float64 { return math.Sqrt(float64(a) * float64(b)) }

// Entry is one stored signature: the paper's four-tuple.
type Entry struct {
	Tuple    Tuple
	Problem  string // root-cause name, e.g. "cpu-hog"
	IP       string // node the signature was collected on
	Workload string // workload type of the operation context
}

// Fingerprint identifies the entry's payload within its operation context:
// FNV-1a over the problem name and the violation tuple. Two entries with the
// same (workload, ip, fingerprint) carry the same diagnostic knowledge, which
// is the merge key both the wire-labelling path and the fleet anti-entropy
// layer dedupe on.
func (e Entry) Fingerprint() uint64 {
	var buf [stackWords]uint64
	return fingerprint(e.Problem, appendPacked(buf[:0], e.Tuple), len(e.Tuple))
}

// Match is a retrieved signature with its similarity score.
type Match struct {
	Entry
	Score float64
}

// DB is the signature database. The zero value is ready to use. Stored
// tuples live only in packed form (see store.go); Entry and Match values
// handed out are unpacked copies the caller owns.
type DB struct {
	store
	// MinScore is the minimum similarity for a match to be reported
	// (default 0: report everything, ranked).
	MinScore float64

	// Scan telemetry: entries considered by best-match scans, and how many
	// resolved without the per-word similarity loop (precomputed-popcount
	// fast paths, stale-length skips, MinScore bound pruning).
	scanEntries    atomic.Int64
	scanEarlyExits atomic.Int64
}

// ScanStats returns the cumulative best-match scan counters: entries
// considered and entries resolved by an early exit. Safe for concurrent use.
func (db *DB) ScanStats() (entries, earlyExits int64) {
	return db.scanEntries.Load(), db.scanEarlyExits.Load()
}

// ErrEmpty is returned when matching against an empty database scope.
var ErrEmpty = errors.New("signature: no signatures for context")

// Add stores a signature. "As more performance problems are diagnosed, the
// number of items in signature database increases gradually."
func (db *DB) Add(e Entry) { db.put(e, false) }

// Merge stores a signature unless an identical one — same operation context,
// same (problem, tuple) fingerprint — is already present, and reports whether
// the entry was added. This is the idempotent primitive behind both wire
// labelling (a retried POST /v1/signatures must not inflate the database and
// skew best-match scans) and fleet anti-entropy (the same entry arriving via
// two gossip paths merges to one copy).
func (db *DB) Merge(e Entry) bool { return db.put(e, true) }

// put packs and fingerprints e on the stack and hands it to the store.
func (db *DB) put(e Entry, unique bool) bool {
	var buf [stackWords]uint64
	words := appendPacked(buf[:0], e.Tuple)
	fp := fingerprint(e.Problem, words, len(e.Tuple))
	return db.add(scopeKey{workload: e.Workload, ip: e.IP}, fp, e.Problem, len(e.Tuple), words, unique)
}

// Len returns the number of stored signatures.
func (db *DB) Len() int { return len(db.order) }

// Clone returns a deep copy of the database: entries and MinScore. Callers
// holding a lock around Clone get a snapshot they can read, match and audit
// without further synchronisation against writers of the original.
func (db *DB) Clone() *DB {
	out := &DB{MinScore: db.MinScore}
	for _, ref := range db.order {
		b := ref.b
		problem, words := db.problems[b.probs[ref.pos]], b.tuple(ref.pos)
		out.add(b.scope, fingerprint(problem, words, b.n), problem, b.n, words, false)
	}
	return out
}

// Entries returns all stored signatures in insertion order, unpacked into
// fresh tuples the caller is free to mutate.
func (db *DB) Entries() []Entry {
	out := make([]Entry, len(db.order))
	for i, ref := range db.order {
		out[i] = db.entry(ref, nil)
	}
	return out
}

// MatchMasked retrieves the topK stored signatures most similar to tuple
// within the operation context (ip, workload); empty ip or workload matches
// any (the no-operation-context ablation passes both empty). Results are
// sorted by descending score, ties broken by problem name for determinism.
// Under a degraded telemetry window similarity is computed only over the
// coordinates whose invariants were checkable (known[i] true); a nil mask
// compares every coordinate. topK <= 0 returns the full ranked list — every
// scoped entry at or above MinScore — which is what audits and the
// benchmark's layer replay read; a verdict only needs Rank.
//
// Retrieval is one scan (see scan): the scope partitions and length buckets
// of store.go decide which entries are touched, every score comes from
// query.score → similarityFromCounts, and selection runs under one total
// order (score descending, problem ascending, insertion order) via a bounded
// top-k heap.
func (db *DB) MatchMasked(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	sel := selector{st: &db.store, k: topK}
	if err := db.scan(tuple, known, ip, workloadType, measure, &sel); err != nil {
		return nil, err
	}
	return sel.results(), nil
}

// Rank is the ranked root-cause list of a diagnosis ("a list of root causes
// which puts the most probable causes in the top"): each distinct problem
// in scope represented by its best-scoring signature, problems sorted by
// descending score (ties by name), truncated to topK when topK > 0. It is
// exactly BestProblem(MatchMasked(…, 0)) cut to topK — same scores, same
// order, same representative entry (earliest stored among a problem's
// equal-best signatures) — computed in one pass: the scan feeds a
// per-problem best-score reducer, so nothing per entry is allocated,
// sorted or copied and only the winners are materialised.
func (db *DB) Rank(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	r := newRanker(len(db.problems))
	if err := db.scan(tuple, known, ip, workloadType, measure, r); err != nil {
		return nil, err
	}
	sel := selector{st: &db.store, k: topK}
	for pid, w := range r.best {
		if w.idx >= 0 {
			sel.add(w.idx, int32(pid), w.score)
		}
	}
	return sel.results(), nil
}

// scan scores the scoped entries against the observed tuple and feeds every
// one at or above MinScore to out. The scope partitions prune entries of
// other operation contexts and the length buckets prune stale tuples; every
// entry of a query-length bucket is scored, or resolved from its population
// count (scanBucket).
func (db *DB) scan(tuple Tuple, known []bool, ip, workloadType string, measure Measure, out sink) error {
	if known != nil && len(known) != len(tuple) {
		// Validated once per query, not per entry — and reported even when
		// the scope matches zero entries.
		return fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), len(tuple))
	}
	if err := measure.check(); err != nil {
		return err
	}
	var buf [2 * stackWords]uint64
	q := newQuery(&buf, tuple, known, measure)
	var scoped int
	var scanned, early int64
	db.forScopes(ip, workloadType, func(sp *scopePartition) {
		scoped += sp.total
		for n, b := range sp.byLen {
			scanned += int64(len(b.ids))
			if n != q.n {
				// Stale signatures from an older invariant set: considered
				// and skipped rather than failing the whole diagnosis.
				early += int64(len(b.ids))
				continue
			}
			early += db.scanBucket(b, &q, out)
		}
	})
	db.scanEntries.Add(scanned)
	db.scanEarlyExits.Add(early)
	if scoped == 0 {
		return ErrEmpty
	}
	return nil
}

// scanBucket scores every entry of b against q — a linear walk over the
// bucket's columns — and reports how many resolved from the precomputed
// population counts alone, without the per-word loop.
func (db *DB) scanBucket(b *bucket, q *query, out sink) (early int64) {
	unmasked := q.known == nil
	off := 0
	for pos, ones := range b.ones {
		e := b.words[off : off+b.stride]
		off += b.stride
		var s float64
		switch {
		case unmasked && q.ones == 0:
			s = zeroQueryScore(int(ones), q.n, q.measure)
			early++
		case unmasked && db.MinScore > 0 && scoreUpperBound(q.ones, int(ones), q.n, q.measure) < db.MinScore:
			early++
			continue // provably below threshold; the exact score cannot be reported
		default:
			s = q.score(q.overlap(e, int(ones)))
		}
		if s >= db.MinScore {
			out.add(b.ids[pos], b.probs[pos], s)
		}
	}
	return early
}

// BestProblem aggregates a full Match list into a ranked root-cause list:
// each distinct problem keeps its best score, problems sorted by descending
// score. Rank computes the same list without materialising the matches;
// this is the reference it is pinned against, and the aggregation for
// callers that already hold a match list.
func BestProblem(matches []Match) []Match {
	best := make(map[string]Match)
	for _, m := range matches {
		if cur, ok := best[m.Problem]; !ok || m.Score > cur.Score {
			best[m.Problem] = m
		}
	}
	out := make([]Match, 0, len(best))
	for _, m := range best {
		out = append(out, m)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Problem < out[b].Problem
	})
	return out
}
