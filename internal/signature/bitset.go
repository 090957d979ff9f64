package signature

import "math/bits"

// Bitset-packed tuples: the database keeps every stored signature only as
// []uint64 words (see store.go for the bucket layout), so the best-match
// scan is popcount loops instead of per-coordinate branches, with early
// exits that skip the loop entirely for entries whose score is already
// determined (or provably below MinScore) by the precomputed population
// counts. The packed path computes the exact same integer tallies (both/
// either/equal/ones/compared) the tests' boolean walk (MaskedSimilarity) does
// and feeds them through the same similarityFromCounts, so scores are
// bit-identical — pinned by TestBitsetMatchesBoolSimilarity.

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

// query is the packed form of one observed tuple and its mask: everything
// the scan needs per entry is a popcount against words (and known, when
// masked). A clean window is the all-known case: known nil, compared = n.
type query struct {
	n        int      // tuple length in coordinates
	words    []uint64 // the observed tuple, restricted to known coordinates
	known    []uint64 // packed mask; nil compares every coordinate
	ones     int      // popcount(words): violated known coordinates
	compared int      // known coordinates: popcount(known), n when unmasked
	measure  Measure
}

// newQuery packs tuple (and known, when non-nil and of the same length) into
// buf, one half each — the caller's stack, so a query of up to 512
// coordinates allocates nothing; longer ones spill to the heap.
func newQuery(buf *[2 * stackWords]uint64, tuple Tuple, known []bool, m Measure) query {
	q := query{n: len(tuple), words: appendPacked(buf[:0:stackWords], tuple), compared: len(tuple), measure: m}
	if known != nil {
		q.known = appendPacked(buf[stackWords:stackWords], known)
		for w := range q.words {
			q.words[w] &= q.known[w]
		}
		q.compared = popcount(q.known)
	}
	q.ones = popcount(q.words)
	return q
}

// overlap counts a stored tuple against the query: both = |q∧e| and
// onesB = |e|, each over the known coordinates. Unmasked, onesB is the
// entry's precomputed population count.
func (q *query) overlap(e []uint64, eOnes int) (both, onesB int) {
	if q.known == nil {
		for w, qw := range q.words {
			both += bits.OnesCount64(qw & e[w])
		}
		return both, eOnes
	}
	for w, qw := range q.words {
		both += bits.OnesCount64(qw & e[w])
		onesB += bits.OnesCount64(q.known[w] & e[w])
	}
	return both, onesB
}

// score turns an entry's overlap with the query into its similarity. The
// remaining tallies follow by integer arithmetic — either = |q∨e| =
// |q|+|e|−|q∧e|, equal = compared − |q⊕e| — the same integers the boolean
// walk counts one coordinate at a time. The measure was validated by the
// caller, so similarityFromCounts cannot fail.
func (q *query) score(both, onesB int) float64 {
	either := q.ones + onesB - both
	equal := q.compared - (either - both)
	s, _ := similarityFromCounts(both, either, equal, q.ones, onesB, q.compared, q.known != nil, q.measure)
	return s
}

// zeroQueryScore resolves the similarity of an all-zero unmasked query
// against a stored entry from the entry's population count alone: with no
// violations observed, both = onesA = 0, either = onesB = ones, and
// equal = n − ones, so every measure is a closed form of (ones, n).
func zeroQueryScore(ones, n int, m Measure) float64 {
	if m == Hamming {
		if n == 0 {
			return 1
		}
		return float64(n-ones) / float64(n)
	}
	// Jaccard, Cosine: either == 0 (resp. onesA == onesB == 0) ⇒ 1; else 0.
	if ones == 0 {
		return 1
	}
	return 0
}

// scoreUpperBound returns an upper bound on the unmasked similarity of two
// tuples with the given population counts — sound for MinScore pruning:
// both ≤ min(onesA, onesB), either ≥ max(onesA, onesB), and at least
// |onesA − onesB| coordinates must mismatch.
func scoreUpperBound(onesA, onesB, n int, m Measure) float64 {
	lo, hi := onesA, onesB
	if lo > hi {
		lo, hi = hi, lo
	}
	switch m {
	case Hamming:
		if n == 0 {
			return 1
		}
		return float64(n-(hi-lo)) / float64(n)
	case Cosine:
		if lo == 0 {
			if onesA == onesB {
				return 1
			}
			return 0
		}
		return float64(lo) / sqrtProd(onesA, onesB)
	default: // Jaccard
		if hi == 0 {
			return 1
		}
		return float64(lo) / float64(hi)
	}
}
