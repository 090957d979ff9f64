package mic

import (
	"math"
	"sync"
	"testing"

	"invarnetx/internal/stats"
)

// kernelShapes is genPair's five relationship shapes plus three series
// built to stress clump construction: ties everywhere but one point, two
// values only, and one axis a single tie group.
const kernelShapes = 8

func kernelPair(rng *stats.RNG, n, shape int) ([]float64, []float64) {
	if shape < 5 {
		return genPair(rng, n, shape)
	}
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		switch shape {
		case 5: // constant but one
			xs[i], ys[i] = 1, rng.Uniform(0, 1)
		case 6: // two-valued
			xs[i] = float64(rng.Intn(2))
			ys[i] = float64(rng.Intn(2))
		default: // all ties on one axis
			xs[i], ys[i] = 4, rng.Normal(0, 1)
		}
	}
	if shape == 5 {
		xs[n/2] = 2
	}
	return xs, ys
}

// checkKernel holds computePair to the reference for one pair in both
// argument orders, field for field. It only calls t.Error, so worker
// goroutines may use it.
func checkKernel(t *testing.T, xs, ys []float64, sc *scratch, ref *refScratch) result {
	t.Helper()
	px, errX := prepare(xs)
	py, errY := prepare(ys)
	if errX != nil || errY != nil {
		t.Errorf("n=%d: prepare: %v, %v", len(xs), errX, errY)
		return result{}
	}
	got, want := computePair(px, py, sc), referenceComputePair(px, py, ref)
	if got != want {
		t.Errorf("n=%d: kernel %+v (bits %x) != reference %+v (bits %x)",
			len(xs), got, math.Float64bits(got.MIC), want, math.Float64bits(want.MIC))
	}
	if rev, want := computePair(py, px, sc), referenceComputePair(py, px, ref); rev != want {
		t.Errorf("n=%d reversed: kernel %+v != reference %+v", len(xs), rev, want)
	}
	return got
}

// TestPairKernelMatchesReference is the bit-identity contract of the exact
// kernel: every result equals what the pre-rewrite kernel (reference_test.go)
// returns, with == and no tolerance. 300 then 30 from a cold table covers
// "table already larger than needed"; 513 and 600 run past termCap.
func TestPairKernelMatchesReference(t *testing.T) {
	termRows.Store(0)
	rng := stats.NewRNG(2400)
	sc, ref := new(scratch), &refScratch{}
	for _, n := range []int{300, 30, 8, 9, 12, 31, 64, 65, 120, 513, 600} {
		for shape := 0; shape < kernelShapes; shape++ {
			xs, ys := kernelPair(rng, n, shape)
			checkKernel(t, xs, ys, sc, ref)
		}
	}
}

// TestPairKernelConcurrentColdTable grows the term table from several
// goroutines at once, each at its own sample count; under -race this is the
// data-race check of the table's publication.
func TestPairKernelConcurrentColdTable(t *testing.T) {
	termRows.Store(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(int64(2500 + w))
			sc, ref := new(scratch), &refScratch{}
			for _, n := range []int{20 + 11*w, 200 - 9*w, 30} {
				for shape := 0; shape < kernelShapes; shape++ {
					xs, ys := kernelPair(rng, n, shape)
					checkKernel(t, xs, ys, sc, ref)
				}
			}
		}(w)
	}
	wg.Wait()
}

// tieHeavyWindow is a 30-tick window of counters that mostly sit at a few
// levels: the shape whose tie groups the old kernel sorted per pair.
func tieHeavyWindow(rng *stats.RNG, m int) [][]float64 {
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(3 + i))
		}
	}
	return rows
}

// coupledWindow is a 30-tick window of metrics that each follow one shared
// load curve through a monotone transform of their own, every fifth one
// quantised to eight levels, with noise that grows with the metric index:
// the first pairs make a few long clumps, the last enough short ones to be
// merged into superclumps.
func coupledWindow(rng *stats.RNG, m int) [][]float64 {
	load := make([]float64, 30)
	for j := range load {
		load[j] = rng.Uniform(0, 1)
	}
	rows := make([][]float64, m)
	for i := range rows {
		rows[i] = make([]float64, len(load))
		for j, x := range load {
			v := math.Pow(x, 1+float64(i%4))
			if i%5 == 0 {
				v = math.Floor(8 * v)
			}
			rows[i][j] = v + rng.Normal(0, 0.01*float64(i))
		}
	}
	return rows
}

// TestPairKernelMatchesReferenceOnWindows holds the kernel to the reference
// over every pair of two 26×30 windows, the shape training scores: counters
// at a few levels (tie groups lying in one row and groups spanning rows)
// and monotone-coupled metrics (few clumps, up to superclumped ones). The
// two-row grid is in every pair.
func TestPairKernelMatchesReferenceOnWindows(t *testing.T) {
	sc, ref := new(scratch), &refScratch{}
	for name, rows := range map[string][][]float64{
		"ties":    tieHeavyWindow(stats.NewRNG(2450), 26),
		"coupled": coupledWindow(stats.NewRNG(2451), 26),
	} {
		for i := range rows {
			for j := i + 1; j < len(rows); j++ {
				if got := checkKernel(t, rows[i], rows[j], sc, ref); t.Failed() {
					t.Fatalf("%s window, pair (%d, %d): %+v", name, i, j, got)
				}
			}
		}
	}
}

// TestPairKernelAllocs pins the allocation behaviour of the two scoring
// entry points: a warm Batch.Score allocates nothing per pair, ties or not,
// and mic.MIC allocates only its two preparations.
func TestPairKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds items under the race detector")
	}
	rows := tieHeavyWindow(stats.NewRNG(2600), 4)
	b, err := NewBatch(rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b.Score(0, 1) // warm the pooled scratch and the term table
	if got := testing.AllocsPerRun(50, func() {
		b.Score(0, 1)
		b.Score(2, 3)
	}); got != 0 {
		t.Errorf("Batch.Score allocates %v per two tie-heavy pairs, want 0", got)
	}
	xs, ys := genPair(stats.NewRNG(2601), 30, 0)
	MIC(xs, ys)
	if got := testing.AllocsPerRun(50, func() { MIC(xs, ys) }); got > 14 {
		t.Errorf("mic.MIC at n=30 allocates %v, want <= 14", got)
	}
}

// TestNewBatchAllocs pins what preparing a verdict's window costs: 26
// metrics × 30 distinct-valued ticks, each preparation seven allocations
// (the preparation, its order and tie runs, one flat array of every row
// count's assignment, and the three per-row-count slices), and the batch two
// more. The bound is an upper one so that a runtime change in how small
// allocations are counted cannot flake it.
func TestNewBatchAllocs(t *testing.T) {
	rng := stats.NewRNG(2602)
	rows := make([][]float64, 26)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := NewBatch(rows, DefaultConfig()); err != nil {
			t.Fatal(err)
		}
	}); got > 184 {
		t.Errorf("NewBatch over 26×30 allocates %v, want <= 184", got)
	}
}

var sinkResult result

// BenchmarkPairKernel times the exact kernel alone: prepared inputs, one
// scratch, no prepare and no pool. The independent pairs have the most
// clumps, so they are the dearest a window holds; the tie-heavy pair is the
// common shape of counters that sit at a few levels, and the coupled pair,
// a monotone one with few clumps, that of the invariants training keeps.
func BenchmarkPairKernel(b *testing.B) {
	ties := tieHeavyWindow(stats.NewRNG(2701), 2)
	coupled := coupledWindow(stats.NewRNG(2702), 2)
	x30, y30 := genPair(stats.NewRNG(2700), 30, 3)
	x120, y120 := genPair(stats.NewRNG(2700), 120, 3)
	for _, c := range []struct {
		name   string
		xs, ys []float64
	}{
		{"n=30", x30, y30}, {"n=120", x120, y120},
		{"n=30-ties", ties[0], ties[1]}, {"n=30-coupled", coupled[0], coupled[1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			px, _ := prepare(c.xs)
			py, _ := prepare(c.ys)
			sc := new(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult, _ = ComputePrepared(px, py, sc)
			}
		})
	}
}

// FuzzPairKernelEquivalence decodes bytes into two series of 8–160 samples —
// the first byte's nibbles quantise each axis, so the mutator reaches every
// density of ties — and holds the kernel to the reference bit for bit, and
// the score to [0, 1].
func FuzzPairKernelEquivalence(f *testing.F) {
	seed := func(q byte, n int, y func(i int, x byte) byte) []byte {
		data := []byte{q}
		for i := 0; i < n; i++ {
			x := byte(i * 37)
			data = append(data, x, y(i, x))
		}
		return data
	}
	f.Add(seed(0x00, 30, func(_ int, x byte) byte { return x }))                // linear
	f.Add(seed(0x00, 64, func(_ int, x byte) byte { return x * x }))            // wrapped quadratic
	f.Add(seed(0x33, 30, func(i int, _ byte) byte { return byte(i * i * 91) })) // unrelated, some ties
	f.Add(seed(0xff, 120, func(i int, x byte) byte { return x ^ byte(i) }))     // 16 levels an axis
	f.Add(seed(0x0f, 8, func(int, byte) byte { return 7 }))                     // constant axis
	f.Add(seed(0x70, 160, func(i int, x byte) byte { return byte(i) }))         // longest series
	sc, ref := new(scratch), &refScratch{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+2*minSamples {
			return
		}
		qx, qy := 1+int(data[0]&0x0f), 1+int(data[0]>>4)
		n := (len(data) - 1) / 2
		if n > 160 {
			n = 160
		}
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = float64(int(data[1+2*i]) / qx)
			ys[i] = float64(int(data[2+2*i]) / qy)
		}
		if got := checkKernel(t, xs, ys, sc, ref); got.MIC < 0 || got.MIC > 1 {
			t.Errorf("MIC %v outside [0, 1]", got.MIC)
		}
	})
}
