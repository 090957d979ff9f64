package invariant

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// pearsonish is a cheap association for tests: 1 for identical slices,
// else a bounded score derived from mean absolute difference.
func testAssoc(x, y []float64) float64 {
	var d float64
	for i := range x {
		d += math.Abs(x[i] - y[i])
	}
	d /= float64(len(x))
	s := 1 / (1 + d)
	return s
}

// markUnknown flags pair (i, j) of a hand-built matrix uncomputable, the way
// the masked fill does: known materialised, score 0.
func markUnknown(a *Matrix, i, j int) {
	if a.known == nil {
		a.known = make([]bool, len(a.scores))
		for k := range a.known {
			a.known[k] = true
		}
	}
	a.known[a.index(i, j)] = false
	a.scores[a.index(i, j)] = 0
}

// knownCount counts the pairs of a carrying a computable score.
func knownCount(a *Matrix) int {
	n := 0
	for i := 0; i < a.M; i++ {
		for j := i + 1; j < a.M; j++ {
			if a.Known(i, j) {
				n++
			}
		}
	}
	return n
}

func TestMatrixKnown(t *testing.T) {
	a := newMatrix(4)
	if !a.Known(0, 1) || !a.Known(2, 3) {
		t.Fatal("fresh matrix has unknown pairs")
	}
	if knownCount(a) != 6 {
		t.Fatalf("known pairs = %d, want 6", knownCount(a))
	}
	markUnknown(a, 1, 3)
	if a.Known(3, 1) {
		t.Fatal("unknown (1,3) not visible via (3,1)")
	}
	if knownCount(a) != 5 {
		t.Fatalf("known pairs = %d, want 5", knownCount(a))
	}
}

func TestComputeMaskedMatrixNilMask(t *testing.T) {
	rows := [][]float64{
		{1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		{2, 4, 6, 8, 10, 12, 14, 16, 18, 20},
		{5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
	}
	a, err := ComputeMaskedMatrixScored(rows, nil, testAssoc, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if knownCount(a) != 3 {
		t.Fatalf("all pairs should be known, got %d", knownCount(a))
	}
	want, err2 := ComputeMaskedMatrixScored(rows, nil, testAssoc, nil, 0)
	if err2 != nil {
		t.Fatal(err2)
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if a.Get(i, j) != want.Get(i, j) {
				t.Fatalf("masked(%d,%d)=%v, unmasked=%v", i, j, a.Get(i, j), want.Get(i, j))
			}
		}
	}
}

func TestComputeMaskedMatrixUnknownPairs(t *testing.T) {
	n := 12
	rows := make([][]float64, 3)
	valid := make([][]bool, 3)
	for m := range rows {
		rows[m] = make([]float64, n)
		valid[m] = make([]bool, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t + m)
			valid[m][t] = true
		}
	}
	// Metric 2 is almost entirely lost: < minSamples overlap with anyone.
	for t := 0; t < n-3; t++ {
		valid[2][t] = false
	}
	a, err := ComputeMaskedMatrixScored(rows, valid, testAssoc, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Known(0, 1) {
		t.Fatal("pair (0,1) should be computable")
	}
	if a.Known(0, 2) || a.Known(1, 2) {
		t.Fatal("pairs involving the lost metric should be unknown")
	}
	if a.Get(0, 2) != 0 || a.Get(1, 2) != 0 {
		t.Fatal("unknown pairs should score 0")
	}
}

func TestComputeMaskedMatrixNaNExcluded(t *testing.T) {
	n := 16
	rows := make([][]float64, 2)
	for m := range rows {
		rows[m] = make([]float64, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t)
		}
	}
	rows[0][3] = math.NaN() // no mask, but NaN must still be excluded
	a, err := ComputeMaskedMatrixScored(rows, nil, func(x, y []float64) float64 {
		for _, v := range append(append([]float64(nil), x...), y...) {
			if math.IsNaN(v) {
				t.Fatal("NaN reached the association function")
			}
		}
		return 1
	}, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Known(0, 1) || a.Get(0, 1) != 1 {
		t.Fatal("pair with one NaN tick should still be computable from the rest")
	}
}

// countingScorer records which pairs it was asked to score. The fill calls
// Score from several workers, so the record is locked.
type countingScorer struct {
	rows   [][]float64
	mu     sync.Mutex
	scored map[Pair]bool
}

func (c *countingScorer) Score(i, j int) float64 {
	c.mu.Lock()
	c.scored[Pair{i, j}] = true
	c.mu.Unlock()
	return testAssoc(c.rows[i], c.rows[j])
}

func TestComputeMaskedMatrixScored(t *testing.T) {
	n := 12
	rows := make([][]float64, 4)
	valid := make([][]bool, 4)
	for m := range rows {
		rows[m] = make([]float64, n)
		valid[m] = make([]bool, n)
		for t := 0; t < n; t++ {
			rows[m][t] = float64(t + 2*m)
			valid[m][t] = true
		}
	}
	valid[3][0] = false // metric 3 has partial overlap everywhere

	plainMat, err := ComputeMaskedMatrixScored(rows, valid, testAssoc, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	sc := &countingScorer{rows: rows, scored: make(map[Pair]bool)}
	scoredMat, err := ComputeMaskedMatrixScored(rows, valid, testAssoc, sc, 8)
	if err != nil {
		t.Fatal(err)
	}
	// The scorer computes the same measure, so results must be identical
	// to the nil-scorer path pair for pair.
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			if scoredMat.Get(i, j) != plainMat.Get(i, j) {
				t.Errorf("pair (%d,%d): scored %v, plain %v", i, j, scoredMat.Get(i, j), plainMat.Get(i, j))
			}
			if scoredMat.Known(i, j) != plainMat.Known(i, j) {
				t.Errorf("pair (%d,%d): scored known=%v, plain known=%v", i, j, scoredMat.Known(i, j), plainMat.Known(i, j))
			}
		}
	}
	// Only full-overlap pairs may go through the scorer; every pair
	// touching metric 3 (partial overlap) must take the assoc fallback.
	for p := range sc.scored {
		if p.I == 3 || p.J == 3 {
			t.Errorf("partial-overlap pair %v went through the batch scorer", p)
		}
	}
	if !sc.scored[Pair{0, 1}] {
		t.Error("full-overlap pair (0,1) should use the batch scorer")
	}
}

// violationsMasked is the dense violation read-out, the reference the
// sparse edge path is tested against: pairs the matrix marks unknown are
// reported as *unknown* — not violated — via the parallel known slice
// (known[k] false ⇒ tuple[k] false). An all-known matrix returns a nil
// known slice.
func violationsMasked(s *Set, abnormal *Matrix, epsilon float64) (tuple, known []bool, err error) {
	if abnormal.M != s.M {
		return nil, nil, fmt.Errorf("invariant: matrix dimension %d, invariant set dimension %d", abnormal.M, s.M)
	}
	if epsilon <= 0 {
		epsilon = DefaultEpsilon
	}
	tuple = make([]bool, len(s.pairs))
	if abnormal.known != nil {
		known = make([]bool, len(s.pairs))
	}
	for k, p := range s.pairs {
		if known != nil {
			if !abnormal.Known(p.I, p.J) {
				continue // unknown: both flags stay false
			}
			known[k] = true
		}
		tuple[k] = Violated(s.Base[p], abnormal.Get(p.I, p.J), epsilon)
	}
	return tuple, known, nil
}

func TestViolationsMasked(t *testing.T) {
	base := map[Pair]float64{
		{0, 1}: 0.9,
		{0, 2}: 0.9,
		{1, 2}: 0.9,
	}
	set := NewSet(3, base)
	ab := newMatrix(3)
	ab.set(0, 1, 0.9) // holds
	ab.set(0, 2, 0.1) // violated, but will be marked unknown
	ab.set(1, 2, 0.1) // violated
	markUnknown(ab, 0, 2)
	tuple, known, err := violationsMasked(set, ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted pair order: (0,1), (0,2), (1,2).
	if tuple[0] || !known[0] {
		t.Fatalf("pair (0,1): tuple=%v known=%v, want holds/known", tuple[0], known[0])
	}
	if tuple[1] || known[1] {
		t.Fatalf("pair (0,2): tuple=%v known=%v, want unknown (not violated)", tuple[1], known[1])
	}
	if !tuple[2] || !known[2] {
		t.Fatalf("pair (1,2): tuple=%v known=%v, want violated/known", tuple[2], known[2])
	}

	// An all-known matrix needs no known slice.
	full := newMatrix(3)
	full.set(1, 2, 0.1)
	tuple2, known2, err := violationsMasked(set, full, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if known2 != nil || !tuple2[0] || !tuple2[1] || !tuple2[2] {
		t.Fatalf("all-known matrix: tuple=%v known=%v, want all violated / nil", tuple2, known2)
	}
}
