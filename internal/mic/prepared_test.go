package mic

import (
	"math"
	"sync"
	"testing"

	"invarnetx/internal/stats"
)

// genPair produces one of a few relationship shapes over n samples.
func genPair(rng *stats.RNG, n, shape int) ([]float64, []float64) {
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Uniform(0, 1)
		switch shape % 5 {
		case 0:
			ys[i] = 2*xs[i] + rng.Normal(0, 0.05)
		case 1:
			ys[i] = xs[i] * xs[i]
		case 2:
			ys[i] = math.Sin(3 * math.Pi * xs[i])
		case 3:
			ys[i] = rng.Normal(0, 1)
		default:
			xs[i] = float64(rng.Intn(5)) // heavy ties
			ys[i] = 3*xs[i] + rng.Normal(0, 0.2)
		}
	}
	return xs, ys
}

// TestComputePreparedMatchesCompute pins the prepared/scratch engine to the
// pairwise entry point: both must produce bit-identical results, since the
// invariant layer mixes them (single-pair checks vs batch matrix fills).
func TestComputePreparedMatchesCompute(t *testing.T) {
	rng := stats.NewRNG(900)
	sc := new(scratch) // reused across cases to exercise buffer reuse
	for _, n := range []int{8, 12, 30, 100, 300} {
		for shape := 0; shape < 5; shape++ {
			xs, ys := genPair(rng, n, shape)
			want, err := compute(xs, ys)
			if err != nil {
				t.Fatal(err)
			}
			px, err := prepare(xs)
			if err != nil {
				t.Fatal(err)
			}
			py, err := prepare(ys)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ComputePrepared(px, py, sc)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("n=%d shape=%d: prepared %+v != compute %+v", n, shape, got, want)
			}
			// Symmetric orientation through the same scratch.
			rev, err := ComputePrepared(py, px, sc)
			if err != nil {
				t.Fatal(err)
			}
			if rev.MIC != want.MIC {
				t.Errorf("n=%d shape=%d: reversed MIC %v != %v", n, shape, rev.MIC, want.MIC)
			}
		}
	}
}

func TestPrepareErrors(t *testing.T) {
	if _, err := prepare([]float64{1, 2, 3}); err != errTooFewSamples {
		t.Errorf("short sample err = %v, want errTooFewSamples", err)
	}
	bad := []float64{1, 2, 3, 4, math.Inf(1), 6, 7, 8}
	if _, err := prepare(bad); err != errNonFinite {
		t.Errorf("non-finite err = %v, want errNonFinite", err)
	}
}

func TestComputePreparedMismatch(t *testing.T) {
	a := make([]float64, 30)
	b := make([]float64, 40)
	for i := range a {
		a[i] = float64(i)
	}
	for i := range b {
		b[i] = float64(i)
	}
	pa, err := prepare(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := prepare(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComputePrepared(pa, pb, nil); err == nil {
		t.Error("mismatched sample lengths should error")
	}
	if _, err := ComputePrepared(nil, pa, nil); err == nil {
		t.Error("nil preparation should error")
	}
}

func TestBatchMatchesMIC(t *testing.T) {
	rng := stats.NewRNG(901)
	n := 30
	rows := make([][]float64, 7)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for tck := 0; tck < n; tck++ {
		base := rng.Uniform(0, 1)
		rows[0][tck] = base
		rows[1][tck] = 2*base + rng.Normal(0, 0.05)
		rows[2][tck] = base * base
		rows[3][tck] = rng.Normal(0, 1)
		rows[4][tck] = 5.0 // constant
		rows[5][tck] = math.Sin(2 * math.Pi * base)
		rows[6][tck] = base
	}
	rows[6][3] = math.NaN() // degenerate: non-finite
	b, err := NewBatch(rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			want := MIC(rows[i], rows[j])
			if got := b.Score(i, j); got != want {
				t.Errorf("batch score (%d,%d) = %v, MIC = %v", i, j, got, want)
			}
		}
	}
	if b.prepared[6] != nil {
		t.Error("non-finite metric should leave its slot unprepared")
	}
	if b.prepared[0] == nil {
		t.Error("clean metric left unprepared")
	}
	if got := b.Score(0, 6); got != 0 {
		t.Errorf("Score against a degenerate metric = %v, want 0", got)
	}
	if got := b.Score(0, 1); got < 0.8 {
		t.Errorf("Score(0,1) = %v for a near-linear pair", got)
	}
}

func TestBatchErrors(t *testing.T) {
	if _, err := NewBatch(nil, DefaultConfig()); err == nil {
		t.Error("empty batch should error")
	}
	if _, err := NewBatch([][]float64{{1, 2}, {1}}, DefaultConfig()); err == nil {
		t.Error("ragged batch should error")
	}
}

// TestBatchConcurrentScores exercises the scratch pool from many
// goroutines; run under -race this is the data-race check for the shared
// preprocessing path.
func TestBatchConcurrentScores(t *testing.T) {
	rng := stats.NewRNG(902)
	n := 40
	m := 8
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	b, err := NewBatch(rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ i, j int }
	var pairs []pair
	want := make(map[pair]float64)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			pairs = append(pairs, pair{i, j})
			want[pair{i, j}] = b.Score(i, j)
		}
	}
	var wg sync.WaitGroup
	got := make([]float64, len(pairs))
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(pairs); k += 8 {
				got[k] = b.Score(pairs[k].i, pairs[k].j)
			}
		}(w)
	}
	wg.Wait()
	for k, p := range pairs {
		if got[k] != want[p] {
			t.Errorf("concurrent score (%d,%d) = %v, want %v", p.i, p.j, got[k], want[p])
		}
	}
}
