// Package signature implements the signature database of the paper (§2,
// §3.3): each investigated performance problem is stored as a binary
// violation tuple under its operation context, in the four-tuple format
// (binary tuple, problem name, ip, workload type). Diagnosis retrieves the
// stored signatures most similar to an observed violation tuple and reports
// their problems as the ranked root-cause list, most probable first.
package signature

import (
	"encoding/binary"
	"errors"
	"fmt"
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
			return nil, errTupleChar(c)
		}
		t[i] = c == '1'
	}
	return t, nil
}

// errTupleChar is how ParseTuple and MergeText refuse a byte of tuple text.
func errTupleChar(c byte) error { return fmt.Errorf("signature: invalid tuple character %q", c) }

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

// Measure names the tuple-similarity function. Jaccard |a∧b| / |a∨b| is the
// only one: it focuses on the violated coordinates, which carry the signal
// (most invariants hold under any single fault, so a measure counting equal
// coordinates is dominated by uninformative zeros). The type stays only
// because bench/ passes core.Config.Similarity to MatchMasked.
type Measure int

// Jaccard is the signature similarity measure.
const Jaccard Measure = 0

func (m Measure) String() string {
	if m == Jaccard {
		return "jaccard"
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// Entry is one stored signature: the paper's four-tuple.
type Entry struct {
	Tuple    Tuple
	Problem  string // root-cause name, e.g. "cpu-hog"
	IP       string // node the signature was collected on
	Workload string // workload type of the operation context
}

// Fingerprint identifies the entry's payload within its operation context:
// FNV-1a over the problem name and the violation tuple. Two entries of one
// context with the same fingerprint carry the same diagnostic knowledge,
// which is the merge key Merge dedupes on.
func (e Entry) Fingerprint() uint64 {
	var buf [stackWords]uint64
	return fingerprint(e.Problem, appendPacked(buf[:0], e.Tuple), len(e.Tuple))
}

// Match is a retrieved signature with its similarity score.
type Match struct {
	Entry
	Score float64
}

// DB is the signature base of one operation context: every entry it holds
// is that context's, and every Entry and Match it hands out carries it. The
// context is fixed when the database is made (NewDB); the zero value is the
// ready-to-use base of the zero context, both fields empty. Stored tuples
// live only in packed form (see store.go); Entry and Match values handed out
// are unpacked copies the caller owns.
type DB struct {
	store
	workload, ip string
	// MinScore is the minimum similarity for a match to be reported
	// (default 0: report everything, ranked).
	MinScore float64

	// Scan telemetry: entries considered by best-match scans, and how many
	// resolved without counting their words: stale-length skips, never
	// scored, and the all-zero query's entries, scored from their
	// population counts alone.
	scanEntries    atomic.Int64
	scanEarlyExits atomic.Int64
}

// ScanStats returns the cumulative best-match scan counters: entries
// considered and entries resolved by an early exit. Safe for concurrent use.
func (db *DB) ScanStats() (entries, earlyExits int64) {
	return db.scanEntries.Load(), db.scanEarlyExits.Load()
}

// ErrEmpty is returned when matching against a database holding no
// signature of the queried context.
var ErrEmpty = errors.New("signature: no signatures for context")

// Add stores the signature of problem. "As more performance problems are
// diagnosed, the number of items in signature database increases
// gradually."
func (db *DB) Add(problem string, tuple Tuple) { db.put(problem, tuple, false) }

// Merge stores the signature of problem unless an identical one — same
// (problem, tuple) fingerprint — is already present, and reports whether it
// was added. This is the idempotent primitive behind wire labelling: a
// retried POST /v1/signatures must not inflate the database and skew
// best-match scans.
func (db *DB) Merge(problem string, tuple Tuple) bool { return db.put(problem, tuple, true) }

// put packs and fingerprints the tuple on the stack and hands it to the
// store.
func (db *DB) put(problem string, tuple Tuple, unique bool) bool {
	var buf [stackWords]uint64
	words := appendPacked(buf[:0], tuple)
	return db.add(fingerprint(problem, words, len(tuple)), problem, len(tuple), words, unique)
}

// NewDB returns the empty signature base of the operation context
// (workload, ip). NewDB("", "") is the zero DB.
func NewDB(workload, ip string) *DB {
	return &DB{workload: workload, ip: ip}
}

// MergeText is Merge of the entry whose tuple is the '0'/'1' text tuple, as
// a store file spells it, without building that Tuple: one pass checks each
// byte, packs it and hashes it into the fingerprint, which is Fingerprint's
// FNV-1a over exactly these bytes. A byte other than '0' or '1' is refused
// with ParseTuple's error, and nothing is stored.
func (db *DB) MergeText(problem string, tuple []byte) (bool, error) {
	var buf [stackWords]uint64
	words := buf[:0]
	for i := 0; i < len(tuple); i += 64 {
		words = append(words, 0)
	}
	h := fnvProblem(problem)
	i := 0
	// Eight bytes at a time while all eight are '0' or '1': their low bits
	// gather into one byte of the word by a multiply (each lands on its own
	// bit of the top byte, no two products overlapping), and the hash takes
	// them in order.
	for ; i+8 <= len(tuple); i += 8 {
		x := binary.LittleEndian.Uint64(tuple[i:])
		if x&0xfefefefefefefefe != 0x3030303030303030 {
			break
		}
		words[i>>6] |= (x & 0x0101010101010101 * 0x0102040810204080 >> 56) << uint(i&63)
		for k := 0; k < 64; k += 8 {
			h = fnvByte(h, byte(x>>k))
		}
	}
	for ; i < len(tuple); i++ {
		c := tuple[i]
		if c != '0' && c != '1' {
			return false, errTupleChar(c)
		}
		words[i>>6] |= uint64(c-'0') << uint(i&63)
		h = fnvByte(h, c)
	}
	return db.add(h, problem, len(tuple), words, true), nil
}

// MergeFrom merges every entry of src into db in src's insertion order, as
// Merge one entry at a time would, and reports how many were added: they
// join db's context. Into an empty db — a restore's fresh profile — it
// adopts src's store whole, columns and capacity as src grew them, and
// leaves src empty: src is already deduplicated, so nothing is copied or
// hashed again. Otherwise each entry merges from its packed words, never
// unpacked, and src is unchanged. The context, MinScore and the scan
// counters stay db's.
func (db *DB) MergeFrom(src *DB) (added int) {
	if len(db.order) == 0 {
		db.store, src.store = src.store, store{}
		return len(db.order)
	}
	for _, ref := range src.order {
		b := ref.b
		problem, words := src.problems[b.probs[ref.pos]], b.tuple(ref.pos)
		if db.add(fingerprint(problem, words, b.n), problem, b.n, words, true) {
			added++
		}
	}
	return added
}

// Len returns the number of stored signatures.
func (db *DB) Len() int { return len(db.order) }

// Clone returns a deep copy of the database: context, entries and
// MinScore. Callers holding a lock around Clone get a snapshot they can
// read, match and audit without further synchronisation against writers of
// the original.
func (db *DB) Clone() *DB {
	out := &DB{workload: db.workload, ip: db.ip, MinScore: db.MinScore}
	for _, ref := range db.order {
		b := ref.b
		problem, words := db.problems[b.probs[ref.pos]], b.tuple(ref.pos)
		out.add(fingerprint(problem, words, b.n), problem, b.n, words, false)
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
// within the operation context (ip, workloadType). The database holds one
// context, so a query naming any other — an empty field matches only an
// empty field — reads no entry and answers ErrEmpty. Results are sorted by
// descending score, ties broken by problem name for determinism.
// Under a degraded telemetry window similarity is computed only over the
// coordinates whose invariants were checkable (known[i] true); a nil mask
// compares every coordinate. topK <= 0 returns the full ranked list — every
// scoped entry at or above MinScore — which is what audits and the
// benchmark's layer replay read; a verdict only needs Rank. measure must be
// Jaccard: bench/ names it, and any other value is refused.
//
// Retrieval is one scan (see scan): the length buckets of store.go decide
// which entries are touched, every score comes from
// scanBucket's closed form (query.score), and selection runs under one total
// order (score descending, problem ascending, insertion order) via a bounded
// top-k heap.
func (db *DB) MatchMasked(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	if measure != Jaccard {
		return nil, fmt.Errorf("signature: unknown measure %v", measure)
	}
	if ip != db.ip || workloadType != db.workload {
		if err := checkMask(tuple, known); err != nil {
			return nil, err
		}
		return nil, ErrEmpty
	}
	sel := selector{db: db, k: topK}
	if err := db.scan(tuple, known, nil, &sel); err != nil {
		return nil, err
	}
	return sel.results(), nil
}

// Rank is the ranked root-cause list of a diagnosis ("a list of root causes
// which puts the most probable causes in the top"): each distinct problem
// of the database represented by its best-scoring signature, problems sorted by
// descending score (ties by name), truncated to topK when topK > 0. It is
// exactly BestProblem(MatchMasked(…, 0)) in the database's own context cut
// to topK — same scores, same
// order, same representative entry (earliest stored among a problem's
// equal-best signatures) — computed in one pass: the scan feeds a
// per-problem best-score reducer, so nothing per entry is allocated,
// sorted or copied and only the winners are materialised.
func (db *DB) Rank(tuple Tuple, known []bool, topK int) ([]Match, error) {
	r := newRanker(len(db.problems))
	if err := db.scan(tuple, known, r, nil); err != nil {
		return nil, err
	}
	sel := selector{db: db, k: topK}
	for pid, w := range r {
		if w.idx >= 0 {
			sel.add(w.idx, int32(pid), w.score)
		}
	}
	return sel.results(), nil
}

// checkMask validates a query's mask once per query, not per entry — and
// before ErrEmpty, so a bad mask is reported even when no entry is read.
func checkMask(tuple Tuple, known []bool) error {
	if known != nil && len(known) != len(tuple) {
		return fmt.Errorf("signature: mask length %d for tuples of length %d", len(known), len(tuple))
	}
	return nil
}

// scan scores the stored entries against the observed tuple and folds every
// one at or above MinScore into the reducer the caller fixed: rank (Rank),
// or sel when it is set (MatchMasked). The length buckets set stale tuples
// aside; every entry of the query-length bucket is scored (scanBucket).
func (db *DB) scan(tuple Tuple, known []bool, rank ranker, sel *selector) error {
	if err := checkMask(tuple, known); err != nil {
		return err
	}
	if len(db.order) == 0 {
		return ErrEmpty
	}
	var buf [2 * stackWords]uint64
	q := newQuery(&buf, tuple, known)
	var scanned, early int64
	for n, b := range db.byLen {
		scanned += int64(len(b.ids))
		if n != q.n {
			// Stale signatures from an older invariant set: considered and
			// skipped rather than failing the whole diagnosis.
			early += int64(len(b.ids))
			continue
		}
		early += db.scanBucket(b, &q, rank, sel)
	}
	db.scanEntries.Add(scanned)
	db.scanEarlyExits.Add(early)
	return nil
}

// scanChunk is how many entries scanBucket takes at a time: the chunk's
// overlap counts and scores are stack arrays that stay in L1.
const scanChunk = 128

// scanBucket scores every entry of b against q, folds those at or above
// MinScore into the reducer — rank, or sel when it is set — and reports how
// many it scored from their population counts alone (the all-zero query's,
// whose words need no counting). It is the one loop that scores an entry,
// for both reducers and both mask arms. It takes the bucket a chunk at a
// time, in three steps:
//
//   - andCounts counts the chunk's overlaps with the query, unrolled for the
//     bucket's stride;
//   - the scoring loop turns each entry's (both, onesB) into its Jaccard
//     score (query.score);
//   - the reducer folds the chunk's scores.
//
// The popcounts run apart from the scoring because on baseline amd64 each
// one carries a fallback call for CPUs without POPCNT, and a call anywhere
// in a loop makes the compiler keep that loop's values on the stack.
func (db *DB) scanBucket(b *bucket, q *query, rank ranker, sel *selector) (early int64) {
	minScore, stride, words := db.MinScore, b.stride, q.words
	if q.known == nil && q.ones == 0 {
		// No violation observed: every score is a closed form of the
		// entry's population count, and there are no words to count.
		words = nil
		early = int64(len(b.ones))
	}
	var both, maskedOnes [scanChunk]int32
	var scores [scanChunk]float64
	for at := 0; at < len(b.ones); at += scanChunk {
		ones := b.ones[at:min(at+scanChunk, len(b.ones))]
		tuples := b.words[at*stride : (at+len(ones))*stride]
		both, onesB, sc := both[:len(ones)], ones, scores[:len(ones)]
		andCounts(both, words, tuples)
		if q.known != nil {
			onesB = maskedOnes[:len(ones)]
			andCounts(onesB, q.known, tuples)
		}
		for i, o := range onesB {
			sc[i] = q.score(int(both[i]), int(o))
		}
		ids, probs := b.ids[at:at+len(ones)], b.probs[at:at+len(ones)]
		if sel != nil {
			sel.fold(ids, probs, sc, minScore)
		} else {
			rank.fold(ids, probs, sc, minScore)
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
