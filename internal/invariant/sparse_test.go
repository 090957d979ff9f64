package invariant

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// synthWindow builds m metric rows over n ticks: metrics [0, coupled) are
// tight monotone functions of one hidden driver (every pair among them is a
// strong invariant), the rest are independent noise. broken lists coupled
// metrics to decouple (replaced by fresh noise) — the violation injection.
func synthWindow(rng *stats.RNG, m, n, coupled int, broken []int) [][]float64 {
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	isBroken := map[int]bool{}
	for _, b := range broken {
		isBroken[b] = true
	}
	for t := 0; t < n; t++ {
		base := rng.Uniform(0, 1)
		for i := 0; i < m; i++ {
			switch {
			case i < coupled && !isBroken[i]:
				rows[i][t] = float64(i+1)*base + rng.Normal(0, 0.01)
			default:
				rows[i][t] = rng.Normal(0, 1)
			}
		}
	}
	return rows
}

// trainSet selects invariants from a few normal windows.
func trainSet(t *testing.T, rng *stats.RNG, m, n, coupled int) *Set {
	t.Helper()
	var runs []*Matrix
	for r := 0; r < 4; r++ {
		rows := synthWindow(rng, m, n, coupled, nil)
		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ComputeMatrixScored(m, b)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, mat)
	}
	set, err := Select(runs, DefaultTau)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("training selected no invariants")
	}
	return set
}

// sameScores fails unless scores holds, for every trained pair in
// SortedPairs order, the dense reference cell bit for bit (0 for an unknown
// cell, as the fill leaves one).
func sameScores(t *testing.T, what string, set *Set, scores []float64, dense *Matrix) {
	t.Helper()
	if len(scores) != set.Len() {
		t.Errorf("%s: %d scores for %d edges", what, len(scores), set.Len())
		return
	}
	for k, p := range set.SortedPairs() {
		if got, want := scores[k], dense.Get(p.I, p.J); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: pair (%d,%d) scored %v, dense cell %v", what, p.I, p.J, got, want)
		}
	}
}

// TestComputeEdgesScoredMatchesDense: the sparse path through mic.Batch
// must produce the exact violation tuple and scores the dense matrix fill +
// Violations produces, on healthy and broken windows.
func TestComputeEdgesScoredMatchesDense(t *testing.T) {
	rng := stats.NewRNG(2100)
	const m, n, coupled = 10, 30, 6
	set := trainSet(t, rng, m, n, coupled)
	eps := DefaultEpsilon
	for rep := 0; rep < 10; rep++ {
		var broken []int
		if rep%2 == 1 {
			broken = []int{1, 3}
		}
		rows := synthWindow(rng, m, n, coupled, broken)
		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ComputeMatrixScored(m, b)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := violationsMasked(set, mat, eps)
		if err != nil {
			t.Fatal(err)
		}
		got, scores, err := set.ComputeEdgesScored(b, eps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("rep %d: sparse tuple %v != dense %v", rep, got, want)
		}
		sameScores(t, fmt.Sprintf("rep %d", rep), set, scores, mat)

		// The seam the kernel shares: finite rows under a nil mask are the
		// clean case, so the masked entry point must resolve every pair
		// as the scorer-only one does — same tuple, same scores, nil known
		// (every edge checkable) — whichever scores the pairs.
		for _, sc := range []struct {
			name   string
			scorer PairScorer // handed to ComputeEdgesMasked
			ref    PairScorer // handed to ComputeEdgesScored
		}{
			{"batch scorer", b, b},
			{"no scorer", nil, assocScorer{rows, mic.MIC}},
		} {
			dense, err := ComputeMaskedMatrixScored(rows, nil, mic.MIC, sc.scorer, 0)
			if err != nil {
				t.Fatal(err)
			}
			refTuple, refScores, err := set.ComputeEdgesScored(sc.ref, eps)
			if err != nil {
				t.Fatal(err)
			}
			gotTuple, gotKnown, gotScores, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, sc.scorer, 0, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTuple, refTuple) || gotKnown != nil {
				t.Errorf("rep %d, %s: masked entry (%v, known %v) != scored entry %v",
					rep, sc.name, gotTuple, gotKnown, refTuple)
			}
			if !reflect.DeepEqual(gotTuple, want) {
				t.Errorf("rep %d, %s: tuple %v != dense %v", rep, sc.name, gotTuple, want)
			}
			sameScores(t, fmt.Sprintf("rep %d, %s, masked entry", rep, sc.name), set, gotScores, dense)
			sameScores(t, fmt.Sprintf("rep %d, %s, scored entry", rep, sc.name), set, refScores, dense)
		}
	}
}

// assocScorer scores pairs by calling assoc on the raw rows — what the
// kernel does itself when handed rows and no scorer.
type assocScorer struct {
	rows  [][]float64
	assoc AssociationFunc
}

func (a assocScorer) Score(i, j int) float64 { return a.assoc(a.rows[i], a.rows[j]) }

// TestComputeEdgesMaskedMatchesDense: degraded windows — random validity
// masks and injected NaNs — must reproduce the dense masked pipeline's
// tuple, known flags and scores exactly.
func TestComputeEdgesMaskedMatchesDense(t *testing.T) {
	rng := stats.NewRNG(2101)
	const m, n, coupled = 10, 40, 6
	set := trainSet(t, rng, m, n, coupled)
	eps := DefaultEpsilon
	for rep := 0; rep < 10; rep++ {
		var broken []int
		if rep%3 == 1 {
			broken = []int{2}
		}
		rows := synthWindow(rng, m, n, coupled, broken)
		valid := make([][]bool, m)
		for i := range valid {
			valid[i] = make([]bool, n)
			for t := range valid[i] {
				valid[i][t] = rng.Float64() > 0.15
			}
		}
		// One metric fully outaged, one NaN slipping past the mask.
		for t := 0; t < n; t++ {
			valid[m-1][t] = rep%2 == 0
		}
		rows[0][5] = math.NaN()

		b, err := mic.NewBatch(rows, mic.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Dense masked fill + ViolationsMasked is the reference, with and
		// without the batch scorer on either side.
		for _, scorer := range []PairScorer{b, nil} {
			mat, err := ComputeMaskedMatrixScored(rows, valid, mic.MIC, scorer, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantTuple, wantKnown, err := violationsMasked(set, mat, eps)
			if err != nil {
				t.Fatal(err)
			}
			gotTuple, gotKnown, gotScores, err := set.ComputeEdgesMasked(rows, valid, mic.MIC, scorer, 0, eps)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotTuple, wantTuple) || !reflect.DeepEqual(gotKnown, wantKnown) {
				t.Errorf("rep %d (scorer %T): sparse (%v,%v) != dense (%v,%v)", rep, scorer, gotTuple, gotKnown, wantTuple, wantKnown)
			}
			if len(gotKnown) != set.Len() {
				t.Errorf("rep %d (scorer %T): known flags %v do not cover %d edges", rep, scorer, gotKnown, set.Len())
			}
			sameScores(t, fmt.Sprintf("rep %d (scorer %T)", rep, scorer), set, gotScores, mat)
		}
	}
}

// TestComputeEdgesMaskedNilScorer: without a batch scorer every computable
// pair takes the assoc path, still matching the dense reference, scores
// included.
func TestComputeEdgesMaskedNilScorer(t *testing.T) {
	rng := stats.NewRNG(2102)
	const m, n, coupled = 6, 30, 4
	set := trainSet(t, rng, m, n, coupled)
	rows := synthWindow(rng, m, n, coupled, []int{1})
	mat, err := ComputeMaskedMatrixScored(rows, nil, mic.MIC, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTuple, wantKnown, err := violationsMasked(set, mat, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	gotTuple, gotKnown, gotScores, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, nil, 0, DefaultEpsilon)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTuple, wantTuple) || !reflect.DeepEqual(gotKnown, wantKnown) {
		t.Errorf("sparse (%v,%v) != dense (%v,%v)", gotTuple, gotKnown, wantTuple, wantKnown)
	}
	if gotKnown != nil {
		t.Errorf("clean window: known %v, want nil (every edge checkable)", gotKnown)
	}
	sameScores(t, "nil scorer", set, gotScores, mat)
}

// TestEveryTrainedPairScoredExactly: a clean window scored through a
// mic.Batch runs the exact association for every trained pair, whatever
// the tolerance — no cheaper bound stands in for the score, and the edge
// pass hands back the batch's own score for each. At epsilon 1 every pair
// sits inside its band, the case a lower bound could otherwise certify
// without scoring.
func TestEveryTrainedPairScoredExactly(t *testing.T) {
	rng := stats.NewRNG(2103)
	const m, n, coupled = 10, 30, 6
	set := trainSet(t, rng, m, n, coupled)
	rows := synthWindow(rng, m, n, coupled, nil)
	b, err := mic.NewBatch(rows, mic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.05, 0.2, 1} {
		_, known, scores, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, b, 0, eps)
		if err != nil {
			t.Fatal(err)
		}
		if known != nil {
			t.Errorf("epsilon %v: known %v, want nil (every trained pair checkable)", eps, known)
		}
		if len(scores) != set.Len() {
			t.Fatalf("epsilon %v: %d scores for %d trained pairs", eps, len(scores), set.Len())
		}
		for k, p := range set.SortedPairs() {
			if want := b.Score(p.I, p.J); math.Float64bits(scores[k]) != math.Float64bits(want) {
				t.Errorf("epsilon %v: pair (%d,%d) scored %v, batch exact score %v", eps, p.I, p.J, scores[k], want)
			}
		}
	}
}

// TestComputeEdgesErrors pins the structural error cases.
func TestComputeEdgesErrors(t *testing.T) {
	set := NewSet(4, map[Pair]float64{{0, 1}: 0.9})
	if _, _, err := set.ComputeEdgesScored(nil, 0.2); err == nil {
		t.Error("nil scorer should error")
	}
	rows := [][]float64{{1, 2}, {1, 2}} // wrong metric count
	if _, _, _, err := set.ComputeEdgesMasked(rows, nil, mic.MIC, nil, 0, 0.2); err == nil {
		t.Error("dimension mismatch should error")
	}
	if _, _, _, err := set.ComputeEdgesMasked(nil, nil, mic.MIC, pairSum{}, 0, 0.2); err == nil {
		t.Error("nil rows should error even with a scorer at hand")
	}
	bad := [][]float64{{1}, {1, 2}, {1, 2}, {1, 2}}
	if _, _, _, err := set.ComputeEdgesMasked(bad, nil, mic.MIC, nil, 0, 0.2); err == nil {
		t.Error("ragged rows should error")
	}
	ok := [][]float64{{1, 2}, {1, 2}, {1, 2}, {1, 2}}
	if _, _, _, err := set.ComputeEdgesMasked(ok, [][]bool{{true}}, mic.MIC, nil, 0, 0.2); err == nil {
		t.Error("mask dimension mismatch should error")
	}
	short := [][]bool{{true, true}, {true}, {true, true}, {true, true}}
	if _, _, _, err := set.ComputeEdgesMasked(ok, short, mic.MIC, nil, 0, 0.2); err == nil {
		t.Error("ragged mask rows should error")
	}
}
