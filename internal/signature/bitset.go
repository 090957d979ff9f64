package signature

import (
	"math"
	"math/bits"
	"sort"
)

// Bitset-packed tuples: the database keeps every stored signature only as
// []uint64 words (see store.go for the bucket layout), so the best-match
// scan is popcount loops instead of per-coordinate branches, with early
// exits that never score an entry whose score is already determined (or
// provably below MinScore) by the precomputed population counts. The packed
// path computes the exact integers the tests' boolean walk
// (MaskedSimilarity) counts one coordinate at a time and divides them as
// that walk's similarity does, in a closed form fixed per query, so scores
// are bit-identical — pinned by TestBitsetMatchesBoolSimilarity.

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

// query is the packed form of one observed tuple and its mask, with the
// measure and the MinScore floor fixed before the scan: per entry the scan
// needs only a popcount against words (and known, when masked) and a closed
// form of the two counts. A clean window is the all-known case: known nil.
type query struct {
	n     int      // tuple length in coordinates
	words []uint64 // the observed tuple, restricted to known coordinates
	known []uint64 // packed mask; nil compares every coordinate
	ones  int      // popcount(words): violated known coordinates
	// The measure (see fix): with d = onesB − both, an entry scores
	// (both + numD·d + num0) / (denD·d + den0), or under Cosine
	// both / sqrt(ones·onesB).
	numD, num0, denD, den0 int
	cosine                 bool
	// lo, hi bound the population count of an entry that can still reach
	// MinScore (see prune).
	lo, hi int
}

// newQuery packs tuple (and known, when non-nil and of the same length) into
// buf, one half each — the caller's stack, so a query of up to 512
// coordinates allocates nothing; longer ones spill to the heap.
func newQuery(buf *[2 * stackWords]uint64, tuple Tuple, known []bool, m Measure) query {
	q := query{n: len(tuple), words: appendPacked(buf[:0:stackWords], tuple), hi: math.MaxInt}
	compared := len(tuple)
	if known != nil {
		q.known = appendPacked(buf[stackWords:stackWords], known)
		for w := range q.words {
			q.words[w] &= q.known[w]
		}
		compared = popcount(q.known)
	}
	q.ones = popcount(q.words)
	q.fix(m, compared)
	return q
}

// fix sets the query's measure over its compared (known) coordinates. The
// query's own tallies are constants, so what the boolean walk counts per
// entry follows from both = |q∧e| and d = |e| − both, the entry's violations
// the query lacks: either = ones + d, and ones − both + d coordinates
// mismatch. Each measure is then a closed form of the two counts —
//
//	Jaccard  both / either     = both / (ones + d)
//	Hamming  equal / compared  = (both − d + compared − ones) / compared
//	Cosine   both / sqrt(ones·onesB)
//
// — over the same integers, with the same float operations, as the boolean
// walk's similarity, so scores are bit-identical. A masked query with no
// known coordinate has no evidence: every entry scores 0 (both and d are 0).
func (q *query) fix(m Measure, compared int) {
	switch {
	case q.known != nil && compared == 0:
		q.den0 = 1
	case m == Jaccard:
		q.denD, q.den0 = 1, q.ones
	case m == Hamming:
		q.numD, q.num0, q.den0 = -1, compared-q.ones, compared
	default: // Cosine
		q.cosine = true
	}
}

// score is the similarity of an entry whose overlap with the query is
// (both, onesB). A zero denominator — Jaccard's either, Hamming's compared,
// or under Cosine a tuple with no violation — scores 1 when neither tuple
// has a violation and 0 otherwise. Small enough to inline into the scan.
func (q *query) score(both, onesB int) float64 {
	d := onesB - both
	var den float64
	if q.cosine {
		den = sqrtProd(q.ones, onesB)
	} else {
		den = float64(q.denD*d + q.den0)
	}
	if den == 0 {
		if onesB == q.ones {
			return 1
		}
		return 0
	}
	return float64(both+q.numD*d+q.num0) / den
}

// prune narrows [lo, hi] to the population counts an entry may have and
// still score minScore, so the scan drops the others unscored.
// Unmasked, an entry with onesB violations overlaps the query in at most
// min(ones, onesB) of them and every measure grows with the overlap, so
// score(min(ones, onesB), onesB) bounds it; that bound rises with onesB up to
// ones, where it is 1, and falls after, so the counts it admits are one
// interval, found by binary search on each side. A masked query, or one with
// no violation (scored exactly from onesB anyway), keeps every count.
func (q *query) prune(minScore float64) {
	if q.known != nil || q.ones == 0 || !(minScore > 0) {
		return
	}
	q.lo = sort.Search(q.ones+1, func(b int) bool { return q.score(b, b) >= minScore })
	q.hi = q.ones - 1 + sort.Search(q.n-q.ones+1, func(k int) bool { return q.score(q.ones, q.ones+k) < minScore })
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
