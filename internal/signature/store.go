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
// A store holds one operation context's entries (the DB around it names the
// context), partitioned once: by tuple length, so stale signatures from an
// older invariant set live in their own bucket and the query-length bucket
// is the only one ever scored.
//
// A bucket is a struct of arrays: one contiguous []uint64 of tuple words at
// a fixed stride plus parallel columns (population count, interned problem
// id, global insertion index), so a scan is a linear walk with no per-entry
// pointer chase, string hash or struct copy. The packed words are the only
// copy of a stored tuple; the boolean Tuple of the API is packed on the way
// in and unpacked on the way out. The context's strings are held once per
// database, problem names once per database, and what Merge dedups on is
// the 8-byte payload fingerprint.
//
// Every query is one scan of its query-length buckets (DB.scan →
// scanBucket, the only loop that scores an entry): a bucket's stride-packed
// words are what its per-stride popcount loops walk, and scores come from
// query.score, a closed form over the same integers the boolean reference
// walk counts, so results are bit-identical to it (pinned by
// TestMatchEquivalence and FuzzMatchEquivalence).

// bucket holds the entries of one tuple length as parallel columns indexed
// by bucket-local position, in insertion order.
type bucket struct {
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
func (b *bucket) pairScore(i, j int32) float64 {
	q := query{words: b.tuple(i), ones: int(b.ones[i])}
	return q.score(andCount(q.words, b.tuple(j)), int(b.ones[j]))
}

// entryRef locates one stored entry.
type entryRef struct {
	b   *bucket
	pos int32
}

// store is the signature storage behind DB. The zero value is ready to use.
type store struct {
	byLen map[int]*bucket
	// dedup holds the payload fingerprint of every entry, for Merge: the
	// store is one operation context's, so the fingerprint alone is the
	// entry's identity. A collision across different payloads is
	// theoretically possible, and then Merge takes a *different* signature
	// for one already stored and drops it: that signature is never stored.
	// It can never corrupt existing entries.
	dedup map[uint64]struct{}
	// order maps global insertion index → the entry's bucket and position.
	order []entryRef
	// problems interns problem names: a bucket column holds the id, the
	// per-problem reducer indexes by it.
	problems []string
	probID   map[string]int32
	// reserve is the entry count NewDB sized the store for: order, the dedup
	// set and the first bucket's columns are made with room for that many.
	reserve int
}

// add stores one packed tuple of n coordinates; fp is the entry's
// fingerprint. With unique set, an entry whose fingerprint the store
// already holds is left out and add reports false.
func (st *store) add(fp uint64, problem string, n int, words []uint64, unique bool) bool {
	var reserve int
	if len(st.order) == 0 {
		reserve = st.reserve
	}
	if st.byLen == nil {
		st.byLen = make(map[int]*bucket)
		st.dedup = make(map[uint64]struct{}, reserve)
		st.probID = make(map[string]int32)
	}
	if _, dup := st.dedup[fp]; dup && unique {
		return false
	}
	st.dedup[fp] = struct{}{}
	pid, ok := st.probID[problem]
	if !ok {
		pid = int32(len(st.problems))
		st.problems = append(st.problems, problem)
		st.probID[problem] = pid
	}
	b := st.byLen[n]
	if b == nil {
		b = &bucket{n: n, stride: (n + 63) / 64}
		if reserve > 0 {
			// Not the words: a count taken from a file's markup, times the
			// stride of one long tuple in it, may be far more than the file.
			b.ones, b.probs, b.ids = make([]int32, 0, reserve), make([]int32, 0, reserve), make([]int32, 0, reserve)
		}
		st.byLen[n] = b
	}
	b.words = append(b.words, words...)
	b.ones = append(b.ones, int32(popcount(words)))
	b.probs = append(b.probs, pid)
	b.ids = append(b.ids, int32(len(st.order)))
	st.order = append(st.order, entryRef{b: b, pos: int32(len(b.ids) - 1)})
	return true
}

// fit returns st with the room NewDB reserved and the entries left unused —
// by duplicates, or by entries of a second tuple length — given back, so a
// store adopted whole holds no more slack than one grown entry by entry. A
// store that filled its reservation exactly, as a saved profile file does,
// is returned as it is.
func (st store) fit() store {
	if st.reserve == 0 {
		return st
	}
	if len(st.order) < st.reserve {
		st.order, st.dedup = slices.Clone(st.order), maps.Clone(st.dedup)
	}
	if len(st.order) > 0 {
		if b := st.order[0].b; len(b.ids) < st.reserve {
			b.ones, b.probs, b.ids = slices.Clone(b.ones), slices.Clone(b.probs), slices.Clone(b.ids)
		}
	}
	st.reserve = 0
	return st
}

// entry unpacks the stored entry ref locates, stamped with the database's
// context: its tuple into dst (zeroed, one tuple long), or into a slice of
// its own when dst is nil. An empty tuple stays nil.
func (db *DB) entry(ref entryRef, dst Tuple) Entry {
	b := ref.b
	if dst == nil && b.n > 0 {
		dst = make(Tuple, b.n)
	}
	unpackInto(dst, b.tuple(ref.pos))
	return Entry{Tuple: dst, Problem: db.problems[b.probs[ref.pos]], IP: db.ip, Workload: db.workload}
}
