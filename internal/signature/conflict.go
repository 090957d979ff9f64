package signature

import (
	"fmt"
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

// Conflicts returns every pair of signatures for *different* problems,
// within the same operation context, whose similarity under measure meets
// or exceeds threshold — sorted by descending similarity. Two signatures of
// the same problem are expected to be similar and are not conflicts.
func (db *DB) Conflicts(measure Measure, threshold float64) ([]Conflict, error) {
	if err := measure.check(); err != nil {
		return nil, err
	}
	var out []Conflict
	for i, a := range db.order {
		for _, b := range db.order[i+1:] {
			// Sharing a bucket is sharing the context and the tuple length:
			// different contexts never compete at match time, and a stale
			// tuple from an older invariant set is not comparable.
			if a.b != b.b || a.b.probs[a.pos] == b.b.probs[b.pos] {
				continue
			}
			if s := a.b.pairScore(a.pos, b.pos, measure); s >= threshold {
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
	return out, nil
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
	Cohesion      float64 // mean intra-problem similarity (1 if single signature)
	WorstExternal float64
	WorstProblem  string
}

// Margin returns Cohesion - WorstExternal.
func (s Separability) Margin() float64 { return s.Cohesion - s.WorstExternal }

// Separabilities computes the per-problem separability report for every
// (problem, context) group in the database.
func (db *DB) Separabilities(measure Measure) ([]Separability, error) {
	if err := measure.check(); err != nil {
		return nil, err
	}
	type key struct {
		pid   int32
		scope scopeKey
	}
	groups := make(map[key][]entryRef)
	for _, ref := range db.order {
		k := key{ref.b.probs[ref.pos], ref.b.scope}
		groups[k] = append(groups[k], ref)
	}
	var out []Separability
	for k, members := range groups {
		s := Separability{Problem: db.problems[k.pid], IP: k.scope.ip, Workload: k.scope.workload, Cohesion: 1}
		if len(members) > 1 {
			var sum float64
			n := 0
			for i, a := range members {
				for _, b := range members[i+1:] {
					if a.b != b.b {
						return nil, fmt.Errorf("signature: tuple lengths %d and %d differ", a.b.n, b.b.n)
					}
					sum += a.b.pairScore(a.pos, b.pos, measure)
					n++
				}
			}
			s.Cohesion = sum / float64(n)
		}
		for k2, others := range groups {
			if k2 == k || k2.scope != k.scope {
				continue
			}
			var sum float64
			n := 0
			for _, a := range members {
				for _, b := range others {
					if a.b != b.b {
						continue // different tuple lengths
					}
					sum += a.b.pairScore(a.pos, b.pos, measure)
					n++
				}
			}
			if n == 0 {
				continue
			}
			if mean := sum / float64(n); mean > s.WorstExternal {
				s.WorstExternal = mean
				s.WorstProblem = db.problems[k2.pid]
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Margin() != out[b].Margin() {
			return out[a].Margin() < out[b].Margin()
		}
		return out[a].Problem < out[b].Problem
	})
	return out, nil
}
