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
// is the merge key Merge dedupes on.
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
	// resolved from their population counts alone, never scored
	// (stale-length skips, MinScore bound pruning) or scored without
	// counting their words (the all-zero query's closed form).
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
// the entry was added. This is the idempotent primitive behind wire
// labelling: a retried POST /v1/signatures must not inflate the database and
// skew best-match scans.
func (db *DB) Merge(e Entry) bool { return db.put(e, true) }

// put packs and fingerprints e on the stack and hands it to the store.
func (db *DB) put(e Entry, unique bool) bool {
	var buf [stackWords]uint64
	words := appendPacked(buf[:0], e.Tuple)
	fp := fingerprint(e.Problem, words, len(e.Tuple))
	return db.add(scopeKey{workload: e.Workload, ip: e.IP}, fp, e.Problem, len(e.Tuple), words, unique)
}

// NewDB returns an empty database with room for n entries of one scope and
// one tuple length: the shape of a profile file's signatures, which a restore
// counts before it reads them. The zero DB is the same database grown entry
// by entry.
func NewDB(n int) *DB {
	return &DB{store: store{reserve: n, order: make([]entryRef, 0, n)}}
}

// MergeText is Merge of the entry whose tuple is the '0'/'1' text tuple, as
// a store file spells it, without building that Tuple: one pass checks each
// byte, packs it and hashes it into the fingerprint, which is Fingerprint's
// FNV-1a over exactly these bytes. A byte other than '0' or '1' is refused
// with ParseTuple's error, and nothing is stored.
func (db *DB) MergeText(workload, ip, problem string, tuple []byte) (bool, error) {
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
	return db.add(scopeKey{workload: workload, ip: ip}, h, problem, len(tuple), words, true), nil
}

// MergeFrom merges every entry of src into db in src's insertion order, as
// Merge one entry at a time would, and reports how many were added. Into an
// empty db — a restore's fresh profile — it adopts src's store whole and
// leaves src empty: src is already deduplicated, so nothing is copied or
// hashed again. Otherwise each entry merges from its packed words, never
// unpacked, and src is unchanged. MinScore and the scan counters stay db's.
func (db *DB) MergeFrom(src *DB) (added int) {
	if len(db.order) == 0 {
		db.store, src.store = src.store.fit(), store{}
		return len(db.order)
	}
	for _, ref := range src.order {
		b := ref.b
		problem, words := src.problems[b.probs[ref.pos]], b.tuple(ref.pos)
		if db.add(b.scope, fingerprint(problem, words, b.n), problem, b.n, words, true) {
			added++
		}
	}
	return added
}

// Scopes calls fn with the (workload, ip) of every scope holding entries,
// sorted, and returns the first error fn returns. A restore checks a file's
// entries against the file's own scope this way, once per scope instead of
// once per entry.
func (db *DB) Scopes(fn func(workload, ip string) error) error {
	keys := make([]scopeKey, 0, len(db.scopes))
	for k := range db.scopes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].ip < keys[j].ip
	})
	for _, k := range keys {
		if err := fn(k.workload, k.ip); err != nil {
			return err
		}
	}
	return nil
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
// within the operation context (ip, workload): exactly the entries stored
// under those two fields, an empty field matching only an empty field (the
// zero Context's profile stores and queries under both empty). Results are
// sorted by descending score, ties broken by problem name for determinism.
// Under a degraded telemetry window similarity is computed only over the
// coordinates whose invariants were checkable (known[i] true); a nil mask
// compares every coordinate. topK <= 0 returns the full ranked list — every
// scoped entry at or above MinScore — which is what audits and the
// benchmark's layer replay read; a verdict only needs Rank.
//
// Retrieval is one scan (see scan): the scope partitions and length buckets
// of store.go decide which entries are touched, every score comes from
// scanBucket's closed form (query.score), and selection runs under one total
// order (score descending, problem ascending, insertion order) via a bounded
// top-k heap.
func (db *DB) MatchMasked(tuple Tuple, known []bool, ip, workloadType string, measure Measure, topK int) ([]Match, error) {
	sel := selector{st: &db.store, k: topK}
	if err := db.scan(tuple, known, ip, workloadType, measure, nil, &sel); err != nil {
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
	if err := db.scan(tuple, known, ip, workloadType, measure, r, nil); err != nil {
		return nil, err
	}
	sel := selector{st: &db.store, k: topK}
	for pid, w := range r {
		if w.idx >= 0 {
			sel.add(w.idx, int32(pid), w.score)
		}
	}
	return sel.results(), nil
}

// scan scores the scoped entries against the observed tuple and folds every
// one at or above MinScore into the reducer the caller fixed: rank (Rank),
// or sel when it is set (MatchMasked). The query's one scope partition
// leaves out every other operation context and its length buckets prune
// stale tuples; every entry of a query-length bucket is scored, or resolved
// from its population count (scanBucket).
func (db *DB) scan(tuple Tuple, known []bool, ip, workloadType string, measure Measure, rank ranker, sel *selector) error {
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
	q.prune(db.MinScore)
	sp := db.scopes[scopeKey{workload: workloadType, ip: ip}]
	if sp == nil || sp.total == 0 {
		return ErrEmpty
	}
	var scanned, early int64
	for n, b := range sp.byLen {
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
// many it resolved from their population counts alone, never scoring them.
// It is the one loop that scores an entry, for both reducers and both mask
// arms. It takes the bucket a chunk at a time, in three steps, each with
// what does not vary per entry fixed before it starts:
//
//   - andCounts counts the chunk's overlaps with the query, unrolled for the
//     bucket's stride;
//   - the scoring loop turns each entry's (both, onesB) into its score by
//     the closed form query.fix chose for the measure, or drops the entry
//     when its population count cannot reach MinScore (query.prune);
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
		for i, o := range ones {
			if int(o) < q.lo || int(o) > q.hi {
				early++
				sc[i] = math.NaN() // below every floor: never folded
				continue
			}
			sc[i] = q.score(int(both[i]), int(onesB[i]))
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
