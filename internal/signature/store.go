package signature

import (
	"maps"
	"slices"
)

// Flat packed signature store. The paper observes that "the number of items
// in signature database increases gradually", so the per-diagnosis retrieval
// cost grows with labelling history unless the scan stays cheap per entry
// and never touches an entry it need not.
//
// The store partitions entries twice:
//
//   - by scope (workload, ip): a query reads its own context's partition
//     and never touches an entry of another;
//   - by tuple length within each scope: stale signatures from an older
//     invariant set live in their own bucket, so the query-length bucket is
//     the only one ever scored.
//
// A bucket is a struct of arrays: one contiguous []uint64 of tuple words at
// a fixed stride plus parallel columns (population count, interned problem
// id, global insertion index), so a scan is a linear walk with no per-entry
// pointer chase, string hash or struct copy. The packed words are the only
// copy of a stored tuple; the boolean Tuple of the API is packed on the way
// in and unpacked on the way out. Scope strings are held once per partition
// and bucket, problem names once per database, and what Merge dedups on is
// the 8-byte payload fingerprint in the entry's own partition.
//
// Every query is one scan of its query-length buckets (DB.scan →
// scanBucket, the only loop that scores an entry): a bucket's stride-packed
// words are what its per-stride popcount loops walk, and scores come from
// query.score, a closed form over the same integers the boolean reference
// walk counts, so results are bit-identical to it (pinned by
// TestMatchEquivalence and FuzzMatchEquivalence).

// scopeKey is one (workload, ip) partition. Entries are stored, and queries
// read, under exactly their context fields; an empty field is a value like
// any other.
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
}

// tuple returns the packed words of the entry at pos.
func (b *bucket) tuple(pos int32) []uint64 {
	return b.words[int(pos)*b.stride : (int(pos)+1)*b.stride]
}

// pairScore is the unmasked similarity of the entries at positions i and j.
func (b *bucket) pairScore(i, j int32, m Measure) float64 {
	q := query{n: b.n, words: b.tuple(i), ones: int(b.ones[i])}
	q.fix(m, b.n)
	return q.score(andCount(q.words, b.tuple(j)), int(b.ones[j]))
}

// scopePartition is everything stored under one (workload, ip) scope.
type scopePartition struct {
	// total counts entries of every tuple length; it is the scoped-entry
	// tally ErrEmpty is decided on, which must include stale-length entries
	// exactly like a per-entry scope filter does.
	total int
	byLen map[int]*bucket
	// dedup holds the payload fingerprint of every entry in the partition,
	// for Merge: the partition is the operation context, so the fingerprint
	// alone is the entry's identity. A collision across different payloads
	// is theoretically possible but would only suppress one redundant store;
	// it can never corrupt existing entries.
	dedup map[uint64]struct{}
}

// entryRef locates one stored entry.
type entryRef struct {
	b   *bucket
	pos int32
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
	// reserve is the entry count NewDB sized the store for: order, and the
	// first entry's partition and bucket columns, are made with room for that
	// many.
	reserve int
}

// add stores one packed tuple of n coordinates under scope; fp is the
// entry's fingerprint. With unique set, an entry whose fingerprint the
// partition already holds is left out and add reports false.
func (st *store) add(scope scopeKey, fp uint64, problem string, n int, words []uint64, unique bool) bool {
	if st.scopes == nil {
		st.scopes = make(map[scopeKey]*scopePartition)
		st.probID = make(map[string]int32)
	}
	var reserve int
	if len(st.order) == 0 {
		reserve = st.reserve
	}
	sp := st.scopes[scope]
	if sp == nil {
		sp = &scopePartition{byLen: make(map[int]*bucket), dedup: make(map[uint64]struct{}, reserve)}
		st.scopes[scope] = sp
	}
	if _, dup := sp.dedup[fp]; dup && unique {
		return false
	}
	sp.dedup[fp] = struct{}{}
	sp.total++
	pid, ok := st.probID[problem]
	if !ok {
		pid = int32(len(st.problems))
		st.problems = append(st.problems, problem)
		st.probID[problem] = pid
	}
	b := sp.byLen[n]
	if b == nil {
		b = &bucket{scope: scope, n: n, stride: (n + 63) / 64}
		if reserve > 0 {
			// Not the words: a count taken from a file's markup, times the
			// stride of one long tuple in it, may be far more than the file.
			b.ones, b.probs, b.ids = make([]int32, 0, reserve), make([]int32, 0, reserve), make([]int32, 0, reserve)
		}
		sp.byLen[n] = b
	}
	b.words = append(b.words, words...)
	b.ones = append(b.ones, int32(popcount(words)))
	b.probs = append(b.probs, pid)
	b.ids = append(b.ids, int32(len(st.order)))
	st.order = append(st.order, entryRef{b: b, pos: int32(len(b.ids) - 1)})
	return true
}

// fit returns st with the room NewDB reserved and the entries left unused —
// by duplicates, or by entries of a second scope or tuple length — given
// back, so a store adopted whole holds no more slack than one grown entry by
// entry. A store that filled its reservation exactly, as a saved profile
// file does, is returned as it is.
func (st store) fit() store {
	if st.reserve == 0 {
		return st
	}
	if len(st.order) > 0 {
		first := st.order[0].b
		if sp := st.scopes[first.scope]; sp.total < st.reserve {
			sp.dedup = maps.Clone(sp.dedup)
		}
		if len(first.ids) < st.reserve {
			first.ones, first.probs, first.ids = slices.Clone(first.ones), slices.Clone(first.probs), slices.Clone(first.ids)
		}
	}
	if len(st.order) < st.reserve {
		st.order = slices.Clone(st.order)
	}
	st.reserve = 0
	return st
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
