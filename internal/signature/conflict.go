package signature

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Conflict is a pair of stored signatures whose tuples are so similar that
// diagnosis will confuse their problems — the phenomenon the paper observes
// between Net-drop and Net-delay ("That's a typical 'signature conflict'
// which will be discussed in our future work"). This file is that future
// work: database auditing that surfaces conflicts before they surface as
// misdiagnoses.
type Conflict struct {
	A, B  Entry
	Score float64
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s ~ %s (%.2f, %s@%s)", c.A.Problem, c.B.Problem, c.Score, c.A.Workload, c.A.IP)
}

// Conflicts returns every pair of signatures for *different* problems in
// the database's context whose similarity meets or exceeds threshold —
// sorted by descending similarity. Two signatures of the same
// problem are expected to be similar and are not conflicts.
func (db *DB) Conflicts(threshold float64) []Conflict {
	var out []Conflict
	for i, a := range db.order {
		for _, b := range db.order[i+1:] {
			// Sharing a bucket is sharing the tuple length: a stale tuple
			// from an older invariant set is not comparable.
			if a.b != b.b || a.b.probs[a.pos] == b.b.probs[b.pos] {
				continue
			}
			if s := a.b.pairScore(a.pos, b.pos); s >= threshold {
				out = append(out, Conflict{A: db.entry(a, nil), B: db.entry(b, nil), Score: s})
			}
		}
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Score != out[y].Score {
			return out[x].Score > out[y].Score
		}
		if out[x].A.Problem != out[y].A.Problem {
			return out[x].A.Problem < out[y].A.Problem
		}
		return out[x].B.Problem < out[y].B.Problem
	})
	return out
}

// Separability summarises how distinguishable one problem's signatures are
// within a context: the gap between its internal cohesion (mean similarity
// among its own signatures) and its worst external similarity (highest mean
// similarity to any other problem's signatures). A negative margin predicts
// misdiagnosis.
type Separability struct {
	Problem       string
	IP            string
	Workload      string
	Cohesion      float64 // mean intra-problem similarity (1 with no comparable pair)
	WorstExternal float64
	// WorstProblem is the rival scoring WorstExternal: the first by name on
	// a tie, named even at 0; "" when no other problem is comparable.
	WorstProblem string
}

// Margin returns Cohesion - WorstExternal.
func (s Separability) Margin() float64 { return s.Cohesion - s.WorstExternal }

// Separabilities computes the per-problem separability report of the
// database's context, by ascending margin (ties by name). Like Conflicts, it
// compares only signatures of one tuple length: a stale tuple left by a
// retrain enters no mean.
func (db *DB) Separabilities() []Separability {
	groups := map[string][]entryRef{}
	for _, ref := range db.order {
		p := db.problems[ref.b.probs[ref.pos]]
		groups[p] = append(groups[p], ref)
	}
	names := slices.Clone(db.problems) // every interned problem holds an entry
	sort.Strings(names)
	var out []Separability
	for _, p := range names {
		s := Separability{Problem: p, IP: db.ip, Workload: db.workload, Cohesion: 1}
		if mean, ok := meanPairScore(groups[p], nil); ok {
			s.Cohesion = mean
		}
		rival := false
		for _, other := range names {
			if other == p {
				continue
			}
			if mean, ok := meanPairScore(groups[p], groups[other]); ok && (!rival || mean > s.WorstExternal) {
				s.WorstExternal, s.WorstProblem, rival = mean, other, true
			}
		}
		out = append(out, s)
	}
	slices.SortStableFunc(out, func(a, b Separability) int { return cmp.Compare(a.Margin(), b.Margin()) })
	return out
}

// meanPairScore is the mean similarity over the comparable pairs — same
// bucket, so same tuple length — of xs × ys, or of the distinct pairs within
// xs when ys is nil. ok is false when there is no comparable pair.
func meanPairScore(xs, ys []entryRef) (mean float64, ok bool) {
	var sum float64
	n := 0
	for i, a := range xs {
		against := ys
		if ys == nil {
			against = xs[i+1:]
		}
		for _, b := range against {
			if a.b == b.b {
				sum += a.b.pairScore(a.pos, b.pos)
				n++
			}
		}
	}
	return sum / float64(n), n > 0
}
