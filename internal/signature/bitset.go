package signature

import "math/bits"

// Bitset-packed tuples: the database keeps every stored signature only as
// []uint64 words (see store.go for the bucket layout), so the best-match
// scan is popcount loops instead of per-coordinate branches. The packed path
// computes the exact integers the tests' boolean walk (MaskedSimilarity)
// counts one coordinate at a time and divides them as that walk's Jaccard
// similarity does, so scores are bit-identical — pinned by
// TestBitsetMatchesBoolSimilarity.

// stackWords sizes the on-stack packing buffers: tuples of up to 512
// coordinates pack, hash and dedupe without a heap allocation.
const stackWords = 8

// appendPacked appends the packed form of t to dst: (len(t)+63)/64 words,
// LSB-first within each word. Padding bits beyond len(t) are zero, which
// the popcount identities below rely on.
func appendPacked(dst []uint64, t []bool) []uint64 {
	base := len(dst)
	for i := 0; i < len(t); i += 64 {
		dst = append(dst, 0)
	}
	for i, v := range t {
		if v {
			dst[base+i/64] |= 1 << uint(i%64)
		}
	}
	return dst
}

// unpackInto sets dst[c] for every coordinate c set in words; dst must be
// zeroed and as long as the packed tuple.
func unpackInto(dst []bool, words []uint64) {
	for w, word := range words {
		for word != 0 {
			dst[w*64+bits.TrailingZeros64(word)] = true
			word &= word - 1
		}
	}
}

func popcount(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// fingerprint is Entry.Fingerprint over the packed form: FNV-1a over the
// problem name, a separator, and the tuple rendered as '0'/'1' bytes.
// MergeText hashes the same bytes as it reads them from a store file.
func fingerprint(problem string, words []uint64, n int) uint64 {
	h := fnvProblem(problem)
	for i := 0; i < n; i++ {
		h = fnvByte(h, byte('0'+words[i>>6]>>uint(i&63)&1))
	}
	return h
}

// fnvProblem starts a fingerprint: FNV-1a over the problem name and the
// separator that keeps ("ab", tuple "c") from colliding with ("a", "bc").
func fnvProblem(problem string) uint64 {
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	for i := 0; i < len(problem); i++ {
		h = fnvByte(h, problem[i])
	}
	return fnvByte(h, 0xff)
}

// fnvByte is one FNV-1a step.
func fnvByte(h uint64, c byte) uint64 { return (h ^ uint64(c)) * 1099511628211 }

// query is the packed form of one observed tuple and its mask: per entry the
// scan needs only a popcount against words (and known, when masked) and the
// closed form of the two counts. A clean window is the all-known case: known
// nil.
type query struct {
	n     int      // tuple length in coordinates
	words []uint64 // the observed tuple, restricted to known coordinates
	known []uint64 // packed mask; nil compares every coordinate
	ones  int      // popcount(words): violated known coordinates
	blind bool     // masked with no known coordinate: no evidence, every entry scores 0
}

// newQuery packs tuple (and known, when non-nil and of the same length) into
// buf, one half each — the caller's stack, so a query of up to 512
// coordinates allocates nothing; longer ones spill to the heap.
func newQuery(buf *[2 * stackWords]uint64, tuple Tuple, known []bool) query {
	q := query{n: len(tuple), words: appendPacked(buf[:0:stackWords], tuple)}
	if known != nil {
		q.known = appendPacked(buf[stackWords:stackWords], known)
		for w := range q.words {
			q.words[w] &= q.known[w]
		}
		q.blind = popcount(q.known) == 0
	}
	q.ones = popcount(q.words)
	return q
}

// score is the Jaccard similarity of an entry whose overlap with the query
// is (both, onesB): both / either, where either = ones + onesB − both. These
// are the integers the boolean walk counts one coordinate at a time, divided
// as it divides them, so scores are bit-identical. Two tuples with no
// violation (either = 0) score 1. Small enough to inline into the scan.
func (q *query) score(both, onesB int) float64 {
	if q.blind {
		return 0
	}
	either := q.ones + onesB - both
	if either == 0 {
		return 1
	}
	return float64(both) / float64(either)
}

// andCount is |x∧e| for two tuples of one stride.
func andCount(x, e []uint64) (n int) {
	e = e[:len(x)]
	for w, xw := range x {
		n += bits.OnesCount64(xw & e[w])
	}
	return n
}

// andCounts sets dst[i] to |x∧e| for each tuple e of tuples, packed back to
// back at stride len(x). Two and three words (65–192 invariants) are the
// strides trained contexts have — every context storm_bigdb scans holds 97
// to 158 invariants, half of its entries at each stride — and each gets a
// loop with the query's words held in registers and the tuple's unrolled.
// At those strides it takes a 20 000-entry Rank ≈ 30 % less time than the
// word loop every other stride runs (2-core Intel Xeon). A query with no words (no violation to count) overlaps
// every tuple in 0.
func andCounts(dst []int32, x, tuples []uint64) {
	switch len(x) {
	case 0:
		clear(dst)
	case 2:
		x0, x1 := x[0], x[1]
		for i, w := 0, 0; i < len(dst); i, w = i+1, w+2 {
			e := (*[2]uint64)(tuples[w : w+2])
			dst[i] = int32(bits.OnesCount64(x0&e[0]) + bits.OnesCount64(x1&e[1]))
		}
	case 3:
		x0, x1, x2 := x[0], x[1], x[2]
		for i, w := 0, 0; i < len(dst); i, w = i+1, w+3 {
			e := (*[3]uint64)(tuples[w : w+3])
			dst[i] = int32(bits.OnesCount64(x0&e[0]) + bits.OnesCount64(x1&e[1]) + bits.OnesCount64(x2&e[2]))
		}
	default:
		for i := range dst {
			dst[i] = int32(andCount(x, tuples[i*len(x):]))
		}
	}
}
