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

// boundaryShape is a pair built to land on one decision the clump loop
// computes as a 0/1 value instead of branching on, with the test that it
// still does: holds reports whether the pair reaches the decision.
type boundaryShape struct {
	name   string
	xs, ys []float64
	holds  func(px, py *Prepared) bool
}

// groupSpans reports whether tie group g of col holds points of more than
// one of row's rows-row equipartition.
func groupSpans(col, row *Prepared, rows, g int) bool {
	start := 0
	if g > 0 {
		start = col.tieEnds[g-1]
	}
	rowOf := row.rowOf[rows]
	for _, p := range col.order[start:col.tieEnds[g]] {
		if rowOf[p] != rowOf[col.order[start]] {
			return true
		}
	}
	return false
}

// rawClumps is the clump count before superclumping, by the reference's
// own merge (the reference refines ties by row value, so its count holds
// for tie-free columns only).
func rawClumps(col, row *Prepared, rows int) int {
	return len(refMergeSameRowRuns(nil, col.tieEnds, row.rowOf[rows], col.order))
}

// boundaryShapes are the pairs the branch-free clump loop hinges on: a
// first tie group spanning rows (the loop's first group, with no open row
// to extend), a spanning group right after a one-row group, and clump
// counts at and one past superclumpC*maxCols (10 for four and five rows at
// n = 30), where the superclump merge is skipped and then run. The two
// count pairs are noisy monotone couplings picked because the score
// changes if the merge's threshold moves by one clump either way. Every
// value is a byte, so each pair is also a FuzzPairKernelEquivalence seed.
func boundaryShapes() []boundaryShape {
	var shapes []boundaryShape
	xs, ys := make([]float64, 30), make([]float64, 30)
	for i := range xs {
		xs[i], ys[i] = float64(max(i, 5)), float64(i*11%30)
	}
	shapes = append(shapes, boundaryShape{"first group spans", xs, ys, func(px, py *Prepared) bool {
		return groupSpans(px, py, 2, 0)
	}})
	xs, ys = make([]float64, 30), make([]float64, 30)
	for i := range xs {
		xs[i], ys[i] = float64(i), float64(i*11%30)
		if i >= 10 && i < 16 {
			xs[i] = 10
		}
	}
	shapes = append(shapes, boundaryShape{"spanning after one-row group", xs, ys, func(px, py *Prepared) bool {
		return !groupSpans(px, py, 2, 9) && groupSpans(px, py, 2, 10)
	}})
	shapes = append(shapes, boundaryShape{"10 four-row clumps",
		[]float64{77, 84, 28, 40, 83, 87, 149, 20, 111, 11, 9, 118, 44, 164, 72, 94, 82, 180, 132, 63, 64, 171, 144, 131, 59, 147, 47, 172, 91, 29},
		[]float64{132, 136, 42, 49, 140, 119, 178, 55, 131, 13, 16, 120, 103, 201, 90, 97, 141, 207, 167, 117, 80, 182, 188, 175, 107, 199, 58, 202, 133, 31},
		func(px, py *Prepared) bool { return rawClumps(px, py, 4) == superclumpC*2 }})
	shapes = append(shapes, boundaryShape{"11 five-row clumps, y the column axis",
		[]float64{196, 29, 47, 104, 76, 66, 158, 25, 121, 119, 83, 49, 198, 7, 177, 90, 40, 71, 136, 167, 138, 28, 95, 94, 122, 81, 12, 178, 17, 134},
		[]float64{199, 47, 74, 120, 77, 80, 172, 39, 164, 149, 100, 107, 227, 58, 200, 119, 88, 126, 165, 219, 148, 48, 99, 134, 173, 108, 18, 192, 27, 166},
		func(px, py *Prepared) bool { return rawClumps(py, px, 5) == superclumpC*2+1 }})
	return shapes
}

// TestPairKernelMatchesReference is the bit-identity contract of the exact
// kernel: every result equals what the pre-rewrite kernel (reference_test.go)
// returns, with == and no tolerance. 300 then 30 from a cold table covers
// "table already larger than needed"; 513 and 600 run past termCap. The
// boundary shapes follow, each first checked to reach its decision.
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
	for _, bs := range boundaryShapes() {
		px, errX := prepare(bs.xs)
		py, errY := prepare(bs.ys)
		if errX != nil || errY != nil || !bs.holds(px, py) {
			t.Errorf("%s: the pair does not reach its decision (%v, %v)", bs.name, errX, errY)
			continue
		}
		checkKernel(t, bs.xs, bs.ys, sc, ref)
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

// verdictWindow is a 26-metric × 30-tick window of distinct values.
func verdictWindow(rng *stats.RNG) [][]float64 {
	rows := make([][]float64, 26)
	for i := range rows {
		rows[i] = make([]float64, 30)
		for j := range rows[i] {
			rows[i][j] = rng.Float64()
		}
	}
	return rows
}

// TestNewBatchAllocs pins what preparing a verdict's window costs: 26
// metrics × 30 distinct-valued ticks, each preparation seven allocations
// (the preparation, its order and tie runs, one flat array of every row
// count's assignment, and the three per-row-count slices), and the batch two
// more. The bound is an upper one so that a runtime change in how small
// allocations are counted cannot flake it.
func TestNewBatchAllocs(t *testing.T) {
	rows := verdictWindow(stats.NewRNG(2602))
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
// scratch, no prepare and no scratch pool. Each shape cycles 64 distinct
// seeded pairs, as traffic brings them, so the branch predictor cannot learn
// one pair's decisions. The independent pairs have the most clumps, so they
// are the dearest a window holds; the tie-heavy pairs are the common shape
// of counters that sit at a few levels, and the coupled pairs, monotone ones
// with few clumps, that of the invariants training keeps.
func BenchmarkPairKernel(b *testing.B) {
	const pool = 64
	for _, c := range []struct {
		name string
		seed int64
		pair func(rng *stats.RNG) (xs, ys []float64)
	}{
		{"n=30", 2700, func(rng *stats.RNG) ([]float64, []float64) { return genPair(rng, 30, 3) }},
		{"n=120", 2703, func(rng *stats.RNG) ([]float64, []float64) { return genPair(rng, 120, 3) }},
		{"n=30-ties", 2701, func(rng *stats.RNG) ([]float64, []float64) { w := tieHeavyWindow(rng, 2); return w[0], w[1] }},
		{"n=30-coupled", 2702, func(rng *stats.RNG) ([]float64, []float64) { w := coupledWindow(rng, 2); return w[0], w[1] }},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := stats.NewRNG(c.seed)
			var px, py [pool]*Prepared
			for i := range px {
				xs, ys := c.pair(rng.Fork(int64(i)))
				px[i], _ = prepare(xs)
				py[i], _ = prepare(ys)
				if px[i] == nil || py[i] == nil {
					b.Fatalf("pair %d does not prepare", i)
				}
			}
			sc := new(scratch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkResult, _ = ComputePrepared(px[i%pool], py[i%pool], sc)
			}
		})
	}
}

// FuzzPairKernelEquivalence decodes bytes into two series of 8–600 samples —
// the first byte's nibbles quantise each axis, so the mutator reaches every
// density of ties, and past termCap the term table's direct route — and
// holds the kernel to the reference bit for bit, and the score to [0, 1].
// The boundary shapes and a 513-sample pair are seeds.
func FuzzPairKernelEquivalence(f *testing.F) {
	seed := func(q byte, n int, y func(i int, x byte) byte) []byte {
		data := []byte{q}
		for i := 0; i < n; i++ {
			x := byte(i * 37)
			data = append(data, x, y(i, x))
		}
		return data
	}
	f.Add(seed(0x00, 30, func(_ int, x byte) byte { return x }))                  // linear
	f.Add(seed(0x00, 64, func(_ int, x byte) byte { return x * x }))              // wrapped quadratic
	f.Add(seed(0x33, 30, func(i int, _ byte) byte { return byte(i * i * 91) }))   // unrelated, some ties
	f.Add(seed(0xff, 120, func(i int, x byte) byte { return x ^ byte(i) }))       // 16 levels an axis
	f.Add(seed(0x0f, 8, func(int, byte) byte { return 7 }))                       // constant axis
	f.Add(seed(0x70, 160, func(i int, x byte) byte { return byte(i) }))           // long series
	f.Add(seed(0x00, termCap+1, func(i int, x byte) byte { return byte(i * i) })) // past termCap
	for _, bs := range boundaryShapes() {
		data := []byte{0x00}
		for i := range bs.xs {
			data = append(data, byte(bs.xs[i]), byte(bs.ys[i]))
		}
		f.Add(data)
	}
	sc, ref := new(scratch), &refScratch{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1+2*minSamples {
			return
		}
		qx, qy := 1+int(data[0]&0x0f), 1+int(data[0]>>4)
		n := (len(data) - 1) / 2
		if n > 600 {
			n = 600
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

var sinkBatch *Batch

// BenchmarkNewBatch times preparing a verdict's window, one sort and every
// row count's equipartition per metric (TestNewBatchAllocs pins its
// allocations).
func BenchmarkNewBatch(b *testing.B) {
	rows := verdictWindow(stats.NewRNG(2703))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBatch, _ = NewBatch(rows, DefaultConfig())
	}
}
