package signature

import (
	"math"
	"math/bits"
	"sync"
)

// Flat packed signature store with a scope-partitioned inverted index. The
// paper observes that "the number of items in signature database increases
// gradually" — and fleet gossip (internal/fleet) replicates every peer's
// signature log into every replica, so the per-diagnosis retrieval cost now
// grows with fleet-wide history unless something keeps it cheap.
//
// The store partitions entries twice:
//
//   - by scope (workload, ip): a scoped query never touches entries of
//     another operation context, and the no-context ablation (empty ip or
//     workload) unions the handful of matching partitions rather than
//     filtering every entry;
//   - by tuple length within each scope: stale signatures from an older
//     invariant set live in their own bucket, so the query-length bucket is
//     the only one ever scored.
//
// A bucket is a struct of arrays: one contiguous []uint64 of tuple words at
// a fixed stride plus parallel columns (population count, interned problem
// id, global insertion index), so a scan is a linear walk with no per-entry
// pointer chase, string hash or struct copy. The packed words are the only
// copy of a stored tuple; the boolean Tuple of the API is packed on the way
// in and unpacked on the way out. Scope strings are held once per bucket
// and problem names once per database.
//
// Within a bucket, a posting bitmap per violated coordinate maps bit → the
// entries whose tuples set it, plus a precomputed zero-tuple group. Because
// most invariants hold under any single fault, tuples are sparse, and under
// Jaccard or Cosine any entry sharing zero violated bits with the query
// scores exactly 0 — so when MinScore > 0 the candidate set is the union of
// the query's violated-bit posting lists (multiplicity-thresholded, see
// minOverlap), and an all-zero query resolves from the zero-tuple group
// alone. Exactness is preserved by construction: all-zero thresholds,
// Hamming, masked windows and MinScore == 0 fall back to the bucket scan,
// and both arms score through query.score → similarityFromCounts, so
// reported scores are bit-identical to the boolean reference scan (pinned
// by TestMatchIndexEquivalence and FuzzMatchEquivalence).

// scopeKey is one (workload, ip) partition. Entries are stored under their
// own concrete context fields; a query with empty ip or workload matches
// several partitions, never the other way around.
type scopeKey struct {
	workload, ip string
}

// bucket holds the entries of one (scope, tuple length) partition as
// parallel columns indexed by bucket-local position, in insertion order.
type bucket struct {
	scope  scopeKey
	n      int // tuple length in coordinates
	stride int // words per tuple: (n+63)/64
	// words is every tuple back to back: position pos owns
	// words[pos*stride : (pos+1)*stride].
	words []uint64
	ones  []int32 // population count of each tuple
	probs []int32 // interned problem id (store.problems)
	ids   []int32 // global insertion index, ascending
	// bitmaps[c] is the posting list of coordinate c as a bitmap over local
	// positions: bit pos is set iff the entry at pos sets coordinate c. The
	// bitmap form lets candidate counting run word-parallel (64 entries per
	// operation) through bit-sliced counters instead of walking positions
	// one at a time. A nil bitmap means no entry sets the coordinate; each
	// bitmap only reaches the last word it has a bit in.
	bitmaps [][]uint64
	// zeros lists the local positions of all-zero tuples: the precomputed
	// group that answers all-zero queries without touching the bitmaps.
	zeros []int32
}

// tuple returns the packed words of the entry at pos.
func (b *bucket) tuple(pos int32) []uint64 {
	return b.words[int(pos)*b.stride : (int(pos)+1)*b.stride]
}

// pairScore is the unmasked similarity of the entries at positions i and j.
func (b *bucket) pairScore(i, j int32, m Measure) float64 {
	q := query{n: b.n, words: b.tuple(i), ones: int(b.ones[i]), compared: b.n, measure: m}
	return q.score(q.overlap(b.tuple(j), int(b.ones[j])))
}

// scopePartition is everything stored under one (workload, ip) scope.
type scopePartition struct {
	// total counts entries of every tuple length; it is the scoped-entry
	// tally ErrEmpty is decided on, which must include stale-length entries
	// exactly like a per-entry scope filter does.
	total int
	byLen map[int]*bucket
}

// entryRef locates one stored entry.
type entryRef struct {
	b   *bucket
	pos int32
}

// mergeKey is the full dedup identity of an entry: the operation context plus
// the payload fingerprint. Fingerprint collisions across different payloads
// are theoretically possible but would only suppress one redundant store;
// they can never corrupt existing entries.
type mergeKey struct {
	scope scopeKey
	fp    uint64
}

// store is the signature storage behind DB. The zero value is ready to use.
type store struct {
	scopes map[scopeKey]*scopePartition
	// order maps global insertion index → the entry's bucket and position.
	order []entryRef
	// problems interns problem names: a bucket column holds the id, the
	// per-problem reducer indexes by it.
	problems []string
	probID   map[string]int32
	// dedup indexes entries by (context, fingerprint) for Merge.
	dedup map[mergeKey]struct{}
}

// add stores one packed tuple of n coordinates under k's scope; k.fp is the
// entry's fingerprint.
func (st *store) add(k mergeKey, problem string, n int, words []uint64) {
	if st.scopes == nil {
		st.scopes = make(map[scopeKey]*scopePartition)
		st.probID = make(map[string]int32)
		st.dedup = make(map[mergeKey]struct{})
	}
	pid, ok := st.probID[problem]
	if !ok {
		pid = int32(len(st.problems))
		st.problems = append(st.problems, problem)
		st.probID[problem] = pid
	}
	sp := st.scopes[k.scope]
	if sp == nil {
		sp = &scopePartition{byLen: make(map[int]*bucket)}
		st.scopes[k.scope] = sp
	}
	sp.total++
	b := sp.byLen[n]
	if b == nil {
		b = &bucket{scope: k.scope, n: n, stride: (n + 63) / 64, bitmaps: make([][]uint64, n)}
		sp.byLen[n] = b
	}
	// Key on the bucket's strings, so the map retains one copy of the scope
	// per bucket rather than whatever each caller's entry pointed into.
	k.scope = b.scope
	st.dedup[k] = struct{}{}
	pos := len(b.ids)
	ones := popcount(words)
	b.words = append(b.words, words...)
	b.ones = append(b.ones, int32(ones))
	b.probs = append(b.probs, pid)
	b.ids = append(b.ids, int32(len(st.order)))
	st.order = append(st.order, entryRef{b: b, pos: int32(pos)})
	if ones == 0 {
		b.zeros = append(b.zeros, int32(pos))
		return
	}
	posWord, posBit := pos>>6, uint(pos&63)
	for w, word := range words {
		for word != 0 {
			c := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			bm := b.bitmaps[c]
			for len(bm) <= posWord {
				bm = append(bm, 0)
			}
			bm[posWord] |= 1 << posBit
			b.bitmaps[c] = bm
		}
	}
}

// copyFrom re-adds the entry ref locates in src (Clone).
func (st *store) copyFrom(src *store, ref entryRef) {
	b := ref.b
	problem, words := src.problems[b.probs[ref.pos]], b.tuple(ref.pos)
	st.add(mergeKey{scope: b.scope, fp: fingerprint(problem, words, b.n)}, problem, b.n, words)
}

// entry unpacks the stored entry ref locates: its tuple into dst (zeroed,
// one tuple long), or into a slice of its own when dst is nil. An empty
// tuple stays nil.
func (st *store) entry(ref entryRef, dst Tuple) Entry {
	b := ref.b
	if dst == nil && b.n > 0 {
		dst = make(Tuple, b.n)
	}
	unpackInto(dst, b.tuple(ref.pos))
	return Entry{Tuple: dst, Problem: st.problems[b.probs[ref.pos]], IP: b.scope.ip, Workload: b.scope.workload}
}

// forScopes calls fn for every partition a query scoped to (ip, workload)
// may match; empty ip or workload is a wildcard on that field. Partition
// visit order is map order — harmless, because both reducers select under a
// total order (see topk.go) and counters are commutative sums.
func (st *store) forScopes(ip, workload string, fn func(*scopePartition)) {
	if ip != "" && workload != "" {
		if sp := st.scopes[scopeKey{workload: workload, ip: ip}]; sp != nil {
			fn(sp)
		}
		return
	}
	for k, sp := range st.scopes {
		if ip != "" && k.ip != ip {
			continue
		}
		if workload != "" && k.workload != workload {
			continue
		}
		fn(sp)
	}
}

// minOverlap returns the smallest shared-violated-bit count |a∧b| an entry
// must have with a qones-bit query to possibly score ≥ minScore — the
// multiplicity threshold for candidate generation. Soundness (an entry the
// linear scan reports is never excluded):
//
//   - Jaccard: s = both/either with either ≥ qones, so s ≥ minScore forces
//     both ≥ minScore·qones;
//   - Cosine: s = both/√(qones·onesB) with onesB ≥ both, so s ≥ minScore
//     forces both ≥ minScore²·qones.
//
// The derivations hold in real arithmetic; the float products below round
// once, so the ceiling is relaxed by a full unit — an absolute slack that
// dwarfs any representation error — and the result never drops below 1
// (sharing zero bits scores exactly 0 under both measures, which MinScore>0
// excludes regardless).
func minOverlap(m Measure, minScore float64, qones int) int {
	t := 1
	var bound float64
	switch m {
	case Jaccard:
		bound = minScore * float64(qones)
	case Cosine:
		bound = minScore * minScore * float64(qones)
	default:
		return t
	}
	if v := int(math.Ceil(bound)) - 1; v > t {
		t = v
	}
	return t
}

// planePool recycles the bit-sliced counter planes across queries; the
// scratch is per-query (concurrent MatchMasked readers must not share
// mutable state), so pooling is what keeps the hot path allocation-free.
var planePool = sync.Pool{New: func() any { return new([]uint64) }}

// candidates calls fn for every entry in b sharing at least threshold
// violated bits with the packed query, passing its local position and the
// exact shared-bit count |q∧e| (the Jaccard/Cosine "both" tally). It counts
// through bit-sliced counters: each query coordinate's bitmap is added —
// word-parallel, 64 entries per operation — into p = bits.Len(q.ones)
// binary counter planes,
// so plane j holds bit j of every entry's running count. Counts cannot
// overflow: they are bounded by q.ones < 2^p. The threshold test is a
// bitwise p-bit comparison against threshold, evaluated per word; the
// count read back for survivors is exact, which is what lets the caller
// score without re-touching the entry's tuple. Candidates arrive in
// ascending local position (insertion) order.
func (b *bucket) candidates(q *query, threshold int, fn func(pos int32, both int)) {
	if threshold <= 0 {
		threshold = 1
	}
	if threshold > q.ones {
		return // shared bits are bounded by the query's ones
	}
	p := bits.Len(uint(q.ones))
	words := (len(b.ids) + 63) / 64
	flatPtr := planePool.Get().(*[]uint64)
	defer planePool.Put(flatPtr)
	flat := *flatPtr
	if cap(flat) < p*words {
		flat = make([]uint64, p*words)
	}
	flat = flat[:p*words]
	clear(flat)
	*flatPtr = flat
	var planeBuf [bits.UintSize][]uint64 // p ≤ bits.UintSize; on the stack
	planes := planeBuf[:p]
	for j := range planes {
		planes[j] = flat[j*words : (j+1)*words]
	}
	for w, word := range q.words {
		for word != 0 {
			c := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			for i, carry := range b.bitmaps[c] {
				// Ripple-carry add of one bit into the counter planes.
				for j := 0; carry != 0; j++ {
					old := planes[j][i]
					planes[j][i] = old ^ carry
					carry &= old
				}
			}
		}
	}
	for i := 0; i < words; i++ {
		// Bitwise comparison of each position's p-bit count against
		// threshold: gt marks counts already proven greater on a higher
		// plane, eq marks counts still equal so far.
		var gt uint64
		eq := ^uint64(0)
		for j := p - 1; j >= 0; j-- {
			var tj uint64
			if threshold>>uint(j)&1 == 1 {
				tj = ^uint64(0)
			}
			gt |= eq & planes[j][i] &^ tj
			eq &= ^(planes[j][i] ^ tj)
		}
		// Positions past len(b.ids) hold count 0 < threshold: never set.
		ge := gt | eq
		for ge != 0 {
			bit := uint(bits.TrailingZeros64(ge))
			ge &= ge - 1
			both := 0
			for j := 0; j < p; j++ {
				both |= int(planes[j][i]>>bit&1) << j
			}
			fn(int32(i*64+int(bit)), both)
		}
	}
}

// IndexStats is an operator snapshot of the retrieval index: its structure
// (recomputed on demand) and the cumulative query counters.
type IndexStats struct {
	// Scopes is the number of (workload, ip) partitions.
	Scopes int
	// Buckets is the number of (scope, tuple-length) buckets.
	Buckets int
	// Indexed is the number of indexed entries (== DB.Len()).
	Indexed int
	// ZeroEntries is the number of entries in the precomputed all-zero
	// tuple groups.
	ZeroEntries int

	// IndexQueries counts queries answered through the inverted index.
	IndexQueries int64
	// ScanQueries counts queries that fell back to the bucket scan (masked
	// windows, Hamming, MinScore == 0).
	ScanQueries int64
	// Candidates counts entries scored by index-path queries — the
	// sub-linear counterpart of ScanStats' entries-considered tally.
	Candidates int64
}

// Add accumulates st into s (for fleet-wide / multi-profile aggregation).
func (s *IndexStats) Add(st IndexStats) {
	s.Scopes += st.Scopes
	s.Buckets += st.Buckets
	s.Indexed += st.Indexed
	s.ZeroEntries += st.ZeroEntries
	s.IndexQueries += st.IndexQueries
	s.ScanQueries += st.ScanQueries
	s.Candidates += st.Candidates
}

// HitRate returns the fraction of queries answered through the index
// (0 when nothing was queried yet).
func (s IndexStats) HitRate() float64 {
	if total := s.IndexQueries + s.ScanQueries; total > 0 {
		return float64(s.IndexQueries) / float64(total)
	}
	return 0
}

// IndexStats snapshots the index structure and query counters. The counters
// are atomics; the structure walk needs the same external synchronisation
// as every other DB read.
func (db *DB) IndexStats() IndexStats {
	st := IndexStats{
		IndexQueries: db.idxQueries.Load(),
		ScanQueries:  db.idxScanQueries.Load(),
		Candidates:   db.idxCandidates.Load(),
	}
	st.Scopes = len(db.scopes)
	for _, sp := range db.scopes {
		st.Buckets += len(sp.byLen)
		st.Indexed += sp.total
		for _, b := range sp.byLen {
			st.ZeroEntries += len(b.zeros)
		}
	}
	return st
}
