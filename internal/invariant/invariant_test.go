package invariant

import (
	"math"
	"testing"
	"testing/quick"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// set stores the score of pair (i, j).
func (a *Matrix) set(i, j int, v float64) { a.scores[a.index(i, j)] = v }

func TestMatrixIndexing(t *testing.T) {
	a := newMatrix(4)
	if len(a.scores) != 6 {
		t.Fatalf("%d stored pairs, want M(M-1)/2 = 6", len(a.scores))
	}
	v := 0.0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			v += 0.1
			a.set(i, j, v)
		}
	}
	if a.Get(0, 1) != 0.1 || math.Abs(a.Get(2, 3)-0.6) > 1e-12 {
		t.Errorf("Get(0,1)=%v Get(2,3)=%v", a.Get(0, 1), a.Get(2, 3))
	}
	// Symmetric access.
	if a.Get(1, 0) != a.Get(0, 1) {
		t.Error("matrix should be symmetric in access")
	}
	a.set(3, 1, 0.9)
	if a.Get(1, 3) != 0.9 {
		t.Error("set with swapped indices should store the same cell")
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	a := newMatrix(3)
	for _, pair := range [][2]int{{0, 0}, {0, 3}, {-1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d,%d) should panic", pair[0], pair[1])
				}
			}()
			a.Get(pair[0], pair[1])
		}()
	}
}

func TestComputeMatrix(t *testing.T) {
	rng := stats.NewRNG(400)
	n := 120
	x := make([]float64, n)
	y := make([]float64, n) // coupled to x
	z := make([]float64, n) // independent
	for i := range x {
		x[i] = rng.Uniform(0, 1)
		y[i] = 2*x[i] + rng.Normal(0, 0.01)
		z[i] = rng.Normal(0, 1)
	}
	a, err := ComputeMaskedMatrixScored([][]float64{x, y, z}, nil, mic.MIC, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Get(0, 1) < 0.8 {
		t.Errorf("coupled pair MIC = %v, want high", a.Get(0, 1))
	}
	if a.Get(0, 2) > 0.4 {
		t.Errorf("independent pair MIC = %v, want low", a.Get(0, 2))
	}
}

func TestComputeMatrixErrors(t *testing.T) {
	if _, err := ComputeMaskedMatrixScored([][]float64{{1, 2}}, nil, mic.MIC, nil, 0); err == nil {
		t.Error("single metric should error")
	}
	if _, err := ComputeMaskedMatrixScored([][]float64{{1, 2}, {1}}, nil, mic.MIC, nil, 0); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestSelectAlgorithm1(t *testing.T) {
	// Three runs; pair (0,1) stable, pair (0,2) unstable, pair (1,2)
	// stable at a low value (stability, not magnitude, is the criterion).
	mk := func(v01, v02, v12 float64) *Matrix {
		a := newMatrix(3)
		a.set(0, 1, v01)
		a.set(0, 2, v02)
		a.set(1, 2, v12)
		return a
	}
	runs := []*Matrix{
		mk(0.90, 0.10, 0.30),
		mk(0.95, 0.60, 0.32),
		mk(0.92, 0.90, 0.28),
	}
	s, err := Select(runs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("invariants = %d, want 2 (got %v)", s.Len(), s.SortedPairs())
	}
	if _, ok := s.Base[Pair{0, 1}]; !ok {
		t.Error("stable pair (0,1) missing")
	}
	if _, ok := s.Base[Pair{0, 2}]; ok {
		t.Error("unstable pair (0,2) selected")
	}
	// Baseline is the midpoint of the observed range (documented
	// deviation from Algorithm 1's Max).
	if math.Abs(s.Base[Pair{0, 1}]-0.925) > 1e-12 {
		t.Errorf("baseline = %v, want midpoint 0.925", s.Base[Pair{0, 1}])
	}
	if math.Abs(s.Base[Pair{1, 2}]-0.30) > 1e-12 {
		t.Errorf("baseline = %v, want 0.30", s.Base[Pair{1, 2}])
	}
}

// TestSelectKnownObservationsOnly: an unknown or NaN score is not an
// observation (of 0, or of anything). The range is taken over the runs that could compute the pair, and a
// pair no run could compute is never selected (it used to read as a
// perfectly stable 0 and become an invariant with baseline 0).
func TestSelectKnownObservationsOnly(t *testing.T) {
	mk := func(v01, v02, v12 float64, unknown ...Pair) *Matrix {
		a := newMatrix(3)
		a.set(0, 1, v01)
		a.set(0, 2, v02)
		a.set(1, 2, v12)
		for _, p := range unknown {
			markUnknown(a, p.I, p.J)
		}
		return a
	}
	runs := []*Matrix{
		mk(0.90, 0, 0.50, Pair{0, 2}),
		mk(0, 0, 0.55, Pair{0, 1}, Pair{0, 2}),
		mk(0.95, 0, 0.52, Pair{0, 2}),
	}
	s, err := Select(runs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Base[Pair{0, 2}]; ok {
		t.Error("pair (0,2), unknown in every run, was selected")
	}
	// (0,1): the unknown run must not stretch the range to [0, 0.95].
	if got, ok := s.Base[Pair{0, 1}]; !ok || math.Abs(got-0.925) > 1e-12 {
		t.Errorf("pair (0,1) baseline = %v (selected %v), want 0.925 over its two known runs", got, ok)
	}
	if got := s.Base[Pair{1, 2}]; math.Abs(got-0.525) > 1e-12 {
		t.Errorf("all-known pair (1,2) baseline = %v, want 0.525", got)
	}

	// A NaN cell is no observation either: a pair NaN in every run is never
	// selected, and one NaN run does not stretch a pair's range.
	nan := math.NaN()
	s, err = Select([]*Matrix{mk(nan, nan, 0.50), mk(nan, 0.40, 0.55), mk(nan, 0.45, nan)}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Base[Pair{0, 1}]; ok {
		t.Error("pair (0,1), NaN in every run, was selected")
	}
	if got, ok := s.Base[Pair{0, 2}]; !ok || math.Abs(got-0.425) > 1e-12 {
		t.Errorf("pair (0,2) baseline = %v (selected %v), want 0.425 over its two scored runs", got, ok)
	}
	if got, ok := s.Base[Pair{1, 2}]; !ok || math.Abs(got-0.525) > 1e-12 {
		t.Errorf("pair (1,2) baseline = %v (selected %v), want 0.525 over its two scored runs", got, ok)
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(nil, 0.2); err != ErrNoRuns {
		t.Errorf("err = %v, want ErrNoRuns", err)
	}
	if _, err := Select([]*Matrix{newMatrix(3), newMatrix(4)}, 0.2); err == nil {
		t.Error("mixed dimensions should error")
	}
}

func TestViolations(t *testing.T) {
	s := NewSet(3, map[Pair]float64{
		{0, 1}: 0.9,
		{1, 2}: 0.5,
	})
	ab := newMatrix(3)
	ab.set(0, 1, 0.3) // |0.9-0.3| = 0.6 >= 0.2: violated
	ab.set(1, 2, 0.45)
	ab.set(0, 2, 0.99) // not an invariant; ignored
	tuple, _, err := violationsMasked(s, ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuple) != 2 {
		t.Fatalf("tuple length = %d, want 2", len(tuple))
	}
	if !tuple[0] || tuple[1] {
		t.Errorf("tuple = %v, want [true false]", tuple)
	}
}

func TestViolationsBoundary(t *testing.T) {
	// |I - A| == epsilon counts as a violation (>= in the paper).
	s := NewSet(2, map[Pair]float64{{0, 1}: 0.7})
	ab := newMatrix(2)
	ab.set(0, 1, 0.5)
	tuple, _, err := violationsMasked(s, ab, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if !tuple[0] {
		t.Error("difference exactly epsilon should violate")
	}
}

func TestViolatedMatchesInternalVerdict(t *testing.T) {
	cases := []struct {
		base, score, eps float64
		want             bool
	}{
		{0.9, 0.9, 0.2, false},
		{0.9, 0.71, 0.2, false},
		{0.9, 0.7, 0.2, true}, // exactly epsilon: violated (slack)
		{0.9, 0.3, 0.2, true},
		{0.2, 0.5, 0, true}, // eps<=0 selects DefaultEpsilon
	}
	for _, c := range cases {
		if got := Violated(c.base, c.score, c.eps); got != c.want {
			t.Fatalf("Violated(%v,%v,%v) = %v, want %v", c.base, c.score, c.eps, got, c.want)
		}
	}
}

func TestViolationsDimensionMismatch(t *testing.T) {
	s := NewSet(3, map[Pair]float64{{0, 1}: 0.5})
	if _, _, err := violationsMasked(s, newMatrix(4), 0.2); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestNewSetNormalizesPairOrder(t *testing.T) {
	s := NewSet(3, map[Pair]float64{{2, 0}: 0.5})
	if _, ok := s.Base[Pair{0, 2}]; !ok {
		t.Error("NewSet should normalise (2,0) to (0,2)")
	}
}

func TestSortedPairsDeterministic(t *testing.T) {
	s := NewSet(4, map[Pair]float64{
		{2, 3}: 0.1, {0, 1}: 0.2, {1, 3}: 0.3, {0, 3}: 0.4,
	})
	p := s.SortedPairs()
	want := []Pair{{0, 1}, {0, 3}, {1, 3}, {2, 3}}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("pairs = %v, want %v", p, want)
		}
	}
}

// Property: for any set of runs, every selected invariant really has range
// < tau across the runs, and no unselected pair has range < tau.
func TestSelectSoundCompleteProperty(t *testing.T) {
	f := func(seed int64, mRaw, nRaw uint8) bool {
		rng := stats.NewRNG(seed)
		m := 2 + int(mRaw%5)
		n := 2 + int(nRaw%6)
		runs := make([]*Matrix, n)
		for r := range runs {
			runs[r] = newMatrix(m)
			for i := 0; i < m; i++ {
				for j := i + 1; j < m; j++ {
					runs[r].set(i, j, rng.Float64())
				}
			}
		}
		tau := 0.3
		s, err := Select(runs, tau)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, r := range runs {
					v := r.Get(i, j)
					if v < lo {
						lo = v
					}
					if v > hi {
						hi = v
					}
				}
				_, selected := s.Base[Pair{i, j}]
				if selected != (hi-lo < tau) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestComputeMatrixDeterministicUnderParallelism(t *testing.T) {
	// ComputeMatrix fans pairs out across goroutines; the result must not
	// depend on scheduling.
	rng := stats.NewRNG(401)
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = make([]float64, 60)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	a, err := ComputeMaskedMatrixScored(rows, nil, mic.MIC, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeMaskedMatrixScored(rows, nil, mic.MIC, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if a.Get(i, j) != b.Get(i, j) {
				t.Fatalf("matrix not deterministic at (%d,%d)", i, j)
			}
		}
	}
}
