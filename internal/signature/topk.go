package signature

import "slices"

// The two reducers behind the scan kernel. The caller fixes one before the
// scan starts, and scanBucket hands it each scored chunk — (entry index,
// problem id, score) columns — to fold the entries at or above MinScore into
// what the caller asked for. Neither is behind an interface, so neither
// escapes to the heap:
//
//   - selector keeps the topK best entries (MatchMasked) — a bounded heap,
//     so selection is O(matches · log topK);
//   - ranker keeps the single best entry of each problem (Rank), an array
//     indexed by interned problem id, and hands only those winners to a
//     selector — O(matches) to reduce, O(problems · log topK) to rank.
//
// Both hold 16-byte keys and materialise a Match only for what is returned.

// key is one scored entry: its global insertion index and interned problem.
type key struct {
	score float64
	pid   int32
	idx   int32
}

// selector accumulates scored entries and yields the ranked result under
// one total order: score descending, then problem ascending (the ordering
// Match always promised), then insertion order — so results do not depend
// on the partition visit order.
type selector struct {
	db   *DB
	k    int   // bound; <= 0 keeps everything
	heap []key // k > 0: min-heap with the worst kept candidate at the root
	all  []key // k <= 0: plain accumulation, sorted at the end
}

// compare orders a before b (negative) when a ranks earlier.
func (s *selector) compare(a, b key) int {
	switch {
	case a.score != b.score:
		if a.score > b.score {
			return -1
		}
		return 1
	case a.pid != b.pid: // interned: distinct ids are distinct names
		if s.db.problems[a.pid] < s.db.problems[b.pid] {
			return -1
		}
		return 1
	default:
		return int(a.idx) - int(b.idx)
	}
}

func (s *selector) better(a, b key) bool { return s.compare(a, b) < 0 }

// add offers one candidate.
func (s *selector) add(idx, pid int32, score float64) {
	c := key{score: score, pid: pid, idx: idx}
	if s.k <= 0 {
		s.all = append(s.all, c)
		return
	}
	if len(s.heap) < s.k {
		s.heap = append(s.heap, c)
		s.up(len(s.heap) - 1)
		return
	}
	if s.better(c, s.heap[0]) {
		s.heap[0] = c
		s.down(0, len(s.heap))
	}
}

// fold offers every entry of a scanned chunk that scored at least minScore.
func (s *selector) fold(ids, probs []int32, scores []float64, minScore float64) {
	for i, sc := range scores {
		if sc >= minScore {
			s.add(ids[i], probs[i], sc)
		}
	}
}

// up sifts the element at i toward the root while it is worse than its
// parent (the root holds the worst kept candidate).
func (s *selector) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.better(s.heap[parent], s.heap[i]) {
			break // parent ranks no earlier than child: heap order holds
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// down restores the heap property from i within heap[:n]: every parent must
// rank no better than its children (worst at the root).
func (s *selector) down(i, n int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && s.better(s.heap[worst], s.heap[l]) {
			worst = l
		}
		if r < n && s.better(s.heap[worst], s.heap[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.heap[i], s.heap[worst] = s.heap[worst], s.heap[i]
		i = worst
	}
}

// results returns the ranked matches, best first. Nil when nothing was kept
// (matching the scan's historical nil-slice result for empty outcomes).
func (s *selector) results() []Match {
	ranked := s.all
	if s.k > 0 {
		// Heap extraction in place: repeatedly move the worst remaining
		// candidate behind the shrinking heap, leaving best-first order.
		ranked = s.heap
		for j := len(ranked) - 1; j > 0; j-- {
			ranked[0], ranked[j] = ranked[j], ranked[0]
			s.down(0, j)
		}
	} else {
		slices.SortFunc(ranked, s.compare)
	}
	if len(ranked) == 0 {
		return nil
	}
	// Every scored entry comes from a query-length bucket, so the results'
	// tuples share one length and one backing array — capped per match, so
	// appending to one never reaches its neighbour.
	n := s.db.order[ranked[0].idx].b.n
	tuples := make([]bool, len(ranked)*n)
	out := make([]Match, len(ranked))
	for i, c := range ranked {
		var t Tuple
		if n > 0 {
			t = tuples[i*n : (i+1)*n : (i+1)*n]
		}
		out[i] = Match{Entry: s.db.entry(s.db.order[c.idx], t), Score: c.score}
	}
	return out
}

// ranker keeps, per problem, the entry a full ranked match list would list
// first: highest score, then lowest insertion index. It is indexed by
// interned problem id.
type ranker []winner

type winner struct {
	score float64
	idx   int32 // -1: no entry of this problem scored yet
}

func newRanker(problems int) ranker {
	r := make(ranker, problems)
	for i := range r {
		r[i].idx = -1
	}
	return r
}

// fold offers every entry of a scanned chunk that scored at least minScore.
func (r ranker) fold(ids, probs []int32, scores []float64, minScore float64) {
	for i, s := range scores {
		if s >= minScore {
			r.add(ids[i], probs[i], s)
		}
	}
}

func (r ranker) add(idx, pid int32, score float64) {
	w := &r[pid]
	if w.idx < 0 || score > w.score || (score == w.score && idx < w.idx) {
		*w = winner{score: score, idx: idx}
	}
}
