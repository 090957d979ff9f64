package invariant

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// mic.Batch must satisfy PairScorer structurally — the compile-time pin for
// the core package's batch wiring.
var _ PairScorer = (*mic.Batch)(nil)

func TestPairAtExhaustive(t *testing.T) {
	// pairAt must invert the flat upper-triangle layout for every pair of
	// every matrix size the pipeline plausibly sees.
	for m := 2; m <= 80; m++ {
		k := 0
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				gi, gj := pairAt(m, k)
				if gi != i || gj != j {
					t.Fatalf("pairAt(%d, %d) = (%d,%d), want (%d,%d)", m, k, gi, gj, i, j)
				}
				k++
			}
		}
		if k != m*(m-1)/2 {
			t.Fatalf("m=%d: walked %d pairs, want %d", m, k, m*(m-1)/2)
		}
	}
}

// TestComputeMatrixEachPairOnce is the regression test for the row-sharded
// scheduling bug: every pair must be scored exactly once, regardless of how
// the pairs are distributed over workers.
func TestComputeMatrixEachPairOnce(t *testing.T) {
	const m, n = 13, 16
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = float64(i*n + j)
		}
	}
	counts := make([]atomic.Int64, m*(m-1)/2)
	a := NewMatrix(m)
	assoc := func(x, y []float64) float64 {
		// Recover (i, j) from the deterministic row contents.
		i := int(x[0]) / n
		j := int(y[0]) / n
		counts[a.index(i, j)].Add(1)
		return float64(i*m + j)
	}
	got, err := ComputeMaskedMatrixScored(rows, nil, assoc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if c := counts[a.index(i, j)].Load(); c != 1 {
				t.Errorf("pair (%d,%d) scored %d times, want exactly once", i, j, c)
			}
			if got.Get(i, j) != float64(i*m+j) {
				t.Errorf("pair (%d,%d) = %v, want %v", i, j, got.Get(i, j), float64(i*m+j))
			}
		}
	}
}

func TestComputeMaskedMatrixEachPairOnce(t *testing.T) {
	const m, n = 11, 20
	rows := make([][]float64, m)
	valid := make([][]bool, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		valid[i] = make([]bool, n)
		for j := range rows[i] {
			rows[i][j] = float64(i*n + j)
			valid[i][j] = true
		}
	}
	// Knock metric m−1 below the overlap threshold: its pairs are unknown
	// and must not reach the association function at all.
	for j := DefaultMinSamples - 1; j < n; j++ {
		valid[m-1][j] = false
	}
	counts := make([]atomic.Int64, m*(m-1)/2)
	a := NewMatrix(m)
	assoc := func(x, y []float64) float64 {
		i := int(x[0]) / n
		j := int(y[0]) / n
		counts[a.index(i, j)].Add(1)
		return 0.5
	}
	got, err := ComputeMaskedMatrixScored(rows, valid, assoc, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			want := int64(1)
			if j == m-1 {
				want = 0
			}
			if c := counts[a.index(i, j)].Load(); c != want {
				t.Errorf("pair (%d,%d) scored %d times, want %d", i, j, c, want)
			}
			if got.Known(i, j) != (j != m-1) {
				t.Errorf("pair (%d,%d) known = %v", i, j, got.Known(i, j))
			}
			if j == m-1 && got.Get(i, j) != 0 {
				t.Errorf("unknown pair (%d,%d) = %v, want 0", i, j, got.Get(i, j))
			}
		}
	}
}

// TestParallelMatchesSerial pins the parallel pair scheduling to the serial
// path bit-for-bit, for the plain, masked, and batch-scored matrix fills.
func TestParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(440)
	const m, n = 12, 40
	rows := make([][]float64, m)
	valid := make([][]bool, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		valid[i] = make([]bool, n)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
			valid[i][j] = rng.Float64() > 0.15
		}
	}
	batch, err := mic.NewBatch(rows, mic.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		plain, scored *Matrix
		masked        *Matrix
	}
	run := func() result {
		var r result
		r.plain, err = ComputeMaskedMatrixScored(rows, nil, mic.MIC, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		r.scored, err = ComputeMatrixScored(m, batch)
		if err != nil {
			t.Fatal(err)
		}
		r.masked, err = ComputeMaskedMatrixScored(rows, valid, mic.MIC, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	par := run()
	prev := runtime.GOMAXPROCS(1) // forEachPair falls back to the serial loop
	ser := run()
	runtime.GOMAXPROCS(prev)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if par.plain.Get(i, j) != ser.plain.Get(i, j) {
				t.Errorf("plain (%d,%d): parallel %v != serial %v", i, j, par.plain.Get(i, j), ser.plain.Get(i, j))
			}
			if par.scored.Get(i, j) != ser.scored.Get(i, j) {
				t.Errorf("scored (%d,%d): parallel %v != serial %v", i, j, par.scored.Get(i, j), ser.scored.Get(i, j))
			}
			if par.masked.Get(i, j) != ser.masked.Get(i, j) {
				t.Errorf("masked (%d,%d): parallel %v != serial %v", i, j, par.masked.Get(i, j), ser.masked.Get(i, j))
			}
			if par.masked.Known(i, j) != ser.masked.Known(i, j) {
				t.Errorf("known (%d,%d): parallel %v != serial %v", i, j, par.masked.Known(i, j), ser.masked.Known(i, j))
			}
			if par.plain.Get(i, j) != par.scored.Get(i, j) {
				t.Errorf("(%d,%d): batch-scored %v != assoc-func %v", i, j, par.scored.Get(i, j), par.plain.Get(i, j))
			}
		}
	}
}

func TestComputeMatrixScoredErrors(t *testing.T) {
	if _, err := ComputeMatrixScored(1, nil); err == nil {
		t.Error("single metric should error")
	}
}

func TestComputeMatrixScoredValues(t *testing.T) {
	const m = 9
	got, err := ComputeMatrixScored(m, pairSum{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if want := float64(i*100 + j); got.Get(i, j) != want {
				t.Errorf("scored (%d,%d) = %v, want %v", i, j, got.Get(i, j), want)
			}
		}
	}
}

type pairSum struct{}

func (pairSum) Score(i, j int) float64 { return float64(i*100 + j) }

func TestForEachPairWorkerIsolation(t *testing.T) {
	// Each worker's closure must come from its own newWorker call — shared
	// scratch would corrupt scores. Count distinct worker instantiations and
	// total work; under -race this doubles as the data-race exercise.
	const m = 40
	var workersMade, calls atomic.Int64
	sum := atomic.Int64{}
	forEachPair(m, runtime.GOMAXPROCS(0), func() func(i, j int) {
		workersMade.Add(1)
		local := 0 // private state: would race if a closure were shared
		return func(i, j int) {
			local++
			calls.Add(1)
			sum.Add(int64(i*m + j))
		}
	})
	pairs := int64(m * (m - 1) / 2)
	if calls.Load() != pairs {
		t.Errorf("work ran %d times, want %d", calls.Load(), pairs)
	}
	want := int64(0)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			want += int64(i*m + j)
		}
	}
	if sum.Load() != want {
		t.Errorf("pair checksum %d, want %d (some pair skipped or repeated)", sum.Load(), want)
	}
	maxW := int64(runtime.GOMAXPROCS(0))
	if w := workersMade.Load(); w < 1 || w > maxW {
		t.Errorf("workersMade = %d, want between 1 and %d", w, maxW)
	}
}

func TestRowOffsetMatchesIndex(t *testing.T) {
	for m := 2; m <= 30; m++ {
		a := NewMatrix(m)
		for i := 0; i < m-1; i++ {
			if rowOffset(m, i) != a.index(i, i+1) {
				t.Fatalf("rowOffset(%d,%d) = %d, index = %d", m, i, rowOffset(m, i), a.index(i, i+1))
			}
		}
	}
	if rowOffset(5, 0) != 0 {
		t.Error("row 0 must start at offset 0")
	}
}

// panicOnPair is a PairScorer that panics on one pair.
type panicOnPair struct{ i, j int }

type pairPanic struct{ i, j int }

func (p panicOnPair) Score(i, j int) float64 {
	if i == p.i && j == p.j {
		panic(pairPanic{i, j})
	}
	return float64(i + j)
}

// TestPairWorkerPanicReachesCaller: a panic inside a forEachPair worker
// goroutine must surface on the goroutine that called the fill, where a
// caller can recover it, instead of killing the process from a goroutine
// nobody can recover on — and what the caller logs of it must still name
// the frame that panicked, not only the re-panic.
func TestPairWorkerPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // several workers even on one CPU
	var got any
	func() {
		defer func() { got = recover() }()
		ComputeMatrixScored(40, panicOnPair{3, 17})
	}()
	wp, ok := got.(*workerPanic)
	if !ok || wp.value != (pairPanic{3, 17}) {
		t.Fatalf("recovered %v, want the worker's panic value %v", got, pairPanic{3, 17})
	}
	if logged := fmt.Sprintf("%v", got); !strings.Contains(logged, "invariant.panicOnPair.Score(") {
		t.Errorf("the recovered panic prints without the panicking frame:\n%s", logged)
	}
}
