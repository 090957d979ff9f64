package invariant

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"invarnetx/internal/mic"
	"invarnetx/internal/stats"
)

// referenceSelect is Select's selection loop as it stood before training
// went pair-major — dense matrices in, one pass over every pair — kept
// verbatim as the reference Train is held to.
func referenceSelect(runs []*Matrix, tau float64) (*Set, error) {
	if len(runs) == 0 {
		return nil, ErrNoRuns
	}
	m := runs[0].M
	for _, r := range runs[1:] {
		if r.M != m {
			return nil, fmt.Errorf("invariant: mixed matrix dimensions %d and %d", m, r.M)
		}
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	s := &Set{M: m, Base: make(map[Pair]float64)}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			k := runs[0].index(i, j)
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range runs {
				if r.known != nil && !r.known[k] {
					continue // unknown in this run: not an observation of 0
				}
				v := r.scores[k]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			// lo > hi: no run could compute the pair, so nothing certifies it.
			if lo <= hi && hi-lo < tau {
				s.Base[Pair{i, j}] = (hi + lo) / 2
			}
		}
	}
	s.buildPairList()
	return s, nil
}

// trainWindow is one run's window for the equivalence tests.
type trainWindow struct {
	rows  [][]float64
	valid [][]bool
}

// batchFor is core's scorer policy for the stock MIC: one mic.Batch per
// window, nil when the window cannot be prepared.
func batchFor(rows [][]float64) PairScorer {
	if b, err := mic.NewBatch(rows, mic.DefaultConfig()); err == nil {
		return b
	}
	return nil
}

// denseReference is the pre-change pipeline: every window filled densely
// (masked fill, batch scorer for the full-overlap pairs), then the old
// selection loop, then the keep filter the cross profiles applied after it.
// It also returns how many pair-window scores an exact run-order exit
// needs — each kept pair's runs up to and including the one where its range
// first reaches tau, or all of them.
func denseReference(t testing.TB, wins []trainWindow, tau float64, keep func(Pair) bool) (*Set, int) {
	t.Helper()
	mats := make([]*Matrix, len(wins))
	for r, w := range wins {
		var err error
		if mats[r], err = ComputeMaskedMatrixScored(w.rows, w.valid, mic.MIC, batchFor(w.rows), 0); err != nil {
			t.Fatal(err)
		}
	}
	set, err := referenceSelect(mats, tau)
	if err != nil {
		t.Fatal(err)
	}
	if tau <= 0 {
		tau = DefaultTau
	}
	base := make(map[Pair]float64)
	for p, v := range set.Base {
		if keep == nil || keep(p) {
			base[p] = v
		}
	}
	need := 0
	m := mats[0].M
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if keep != nil && !keep(Pair{i, j}) {
				continue
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, a := range mats {
				need++
				if a.Known(i, j) {
					lo, hi = min(lo, a.Get(i, j)), max(hi, a.Get(i, j))
				}
				if hi-lo >= tau {
					break
				}
			}
		}
	}
	return NewSet(m, base), need
}

// runsOf turns windows into Train's runs.
func runsOf(wins []trainWindow) []Run {
	runs := make([]Run, len(wins))
	for r, w := range wins {
		runs[r] = Run{Rows: w.rows, Valid: w.valid, Scorer: func() PairScorer { return batchFor(w.rows) }}
	}
	return runs
}

// sameSet fails unless got and want hold the same pairs, in the same order,
// with bit-identical baselines.
func sameSet(t testing.TB, label string, got, want *Set) {
	t.Helper()
	if got.M != want.M || got.Len() != want.Len() {
		t.Fatalf("%s: set M=%d with %d pairs, reference M=%d with %d", label, got.M, got.Len(), want.M, want.Len())
	}
	for k, p := range want.SortedPairs() {
		if q := got.SortedPairs()[k]; q != p {
			t.Fatalf("%s: pair %d is %v, reference %v", label, k, q, p)
		}
		if g, w := got.Base[p], want.Base[p]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: baseline of %v is %v (%#x), reference %v (%#x)", label, p, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkTrain holds Train to the dense reference on wins at tau, scoring
// exactly what the run-order exit needs.
func checkTrain(t testing.TB, label string, wins []trainWindow, tau float64, keep func(Pair) bool) {
	t.Helper()
	want, need := denseReference(t, wins, tau, keep)
	pairs, total := 0, want.M*(want.M-1)/2
	for k := 0; k < total; k++ {
		if i, j := pairAt(want.M, k); keep == nil || keep(Pair{i, j}) {
			pairs++
		}
	}
	got, st, err := Train(runsOf(wins), mic.MIC, tau, keep)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	sameSet(t, label, got, want)
	if st.Scored != need || st.Scored+st.Skipped != pairs*len(wins) {
		t.Fatalf("%s: %+v, want exactly %d scored of %d pairs x %d runs", label, st, need, pairs, len(wins))
	}
}

// genWindows builds nRuns windows over m metrics: the first half of the
// metrics are noisy functions of one latent load (stable pairs), the rest
// noise (pairs that exit at various runs). lens gives each run's length
// (cycled); maskP drops samples at random, leaving partial overlaps; dead
// names a metric no run observes (-1 none); flat a constant metric (-1
// none).
func genWindows(seed int64, nRuns, m int, lens []int, maskP float64, dead, flat int) []trainWindow {
	rng := stats.NewRNG(seed)
	wins := make([]trainWindow, nRuns)
	for r := range wins {
		n := lens[r%len(lens)]
		rows := make([][]float64, m)
		var valid [][]bool
		if maskP > 0 || dead >= 0 {
			valid = make([][]bool, m)
		}
		latent := make([]float64, n)
		for t := range latent {
			latent[t] = rng.Uniform(0, 1)
		}
		for i := range rows {
			rows[i] = make([]float64, n)
			for t := range rows[i] {
				switch {
				case i == flat:
					rows[i][t] = 3
				case i < m/2:
					rows[i][t] = float64(i+1)*latent[t] + rng.Normal(0, 0.05)
				default:
					rows[i][t] = rng.Uniform(0, 1)
				}
			}
			if valid != nil {
				valid[i] = make([]bool, n)
				for t := range valid[i] {
					valid[i][t] = i != dead && rng.Float64() >= maskP
				}
			}
		}
		wins[r] = trainWindow{rows: rows, valid: valid}
	}
	return wins
}

// TestTrainMatchesDenseSelect: the pair-major driver selects exactly the set
// — pairs and baseline bits — that a dense fill of every run plus the old
// selection loop selected, on clean, masked, dead-metric, constant-metric
// and ragged-length pools, at every τ regime, serial and parallel, and
// scores exactly the cells the run-order exit needs.
func TestTrainMatchesDenseSelect(t *testing.T) {
	const m = 8
	cross := func(p Pair) bool { return p.I < m/2 && p.J >= m/2 }
	cases := []struct {
		name string
		wins []trainWindow
		keep func(Pair) bool
		dead []int // metrics no run observes: none of their pairs may be selected
	}{
		{name: "clean", wins: genWindows(1, 6, m, []int{30}, 0, -1, -1)},
		{name: "masked", wins: genWindows(2, 6, m, []int{36}, 0.12, -1, -1)},
		{name: "dead metric", wins: genWindows(3, 6, m, []int{30}, 0.05, 5, -1), dead: []int{5}},
		{name: "constant metric", wins: genWindows(4, 6, m, []int{30}, 0, -1, 2)},
		{name: "ragged lengths", wins: genWindows(5, 7, m, []int{24, 40, 31, 12}, 0.1, -1, -1)},
		{name: "cross predicate", wins: genWindows(6, 6, m, []int{30}, 0.08, -1, -1), keep: cross},
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			for _, tau := range []float64{0, 1e-9, 0.2, 1} {
				checkTrain(t, fmt.Sprintf("%s procs=%d tau=%g", c.name, procs, tau), c.wins, tau, c.keep)
			}
			for _, dead := range c.dead {
				set, _, err := Train(runsOf(c.wins), mic.MIC, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range set.SortedPairs() {
					if p.I == dead || p.J == dead {
						t.Errorf("%s: pair %v of a metric no run observed was selected", c.name, p)
					}
				}
			}
		}
	}
}

// TestTrainErrors: Train refuses what Select refused, plus a run it cannot
// read.
func TestTrainErrors(t *testing.T) {
	wins := genWindows(7, 2, 4, []int{20}, 0, -1, -1)
	if _, _, err := Train(nil, mic.MIC, 0, nil); err != ErrNoRuns {
		t.Errorf("no runs: err = %v, want ErrNoRuns", err)
	}
	if _, _, err := Train([]Run{{}}, mic.MIC, 0, nil); err == nil {
		t.Error("a run with neither window nor matrix should error")
	}
	both := runsOf(wins)
	both[1].mat = NewMatrix(4)
	if _, _, err := Train(both, mic.MIC, 0, nil); err == nil {
		t.Error("a run with both a window and a matrix should error")
	}
	other := runsOf(append(wins, genWindows(8, 1, 5, []int{20}, 0, -1, -1)...))
	if _, _, err := Train(other, mic.MIC, 0, nil); err == nil {
		t.Error("windows of mixed dimensions should error")
	}
	ragged := runsOf(wins)
	ragged[0].Rows = [][]float64{{1, 2, 3}, {1, 2}}
	if _, _, err := Train(ragged, mic.MIC, 0, nil); err == nil {
		t.Error("a ragged window should error")
	}
}

// FuzzTrainEquivalence: for mutator-chosen pools — 2–6 runs of 3–6 metrics ×
// 8–40 ticks, a mask density and a τ — the driver selects the dense
// reference's set to the bit and scores exactly what the run-order exit
// needs.
func FuzzTrainEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x1c, 0x00, 0x33, 0x12, 30, 200, 7, 99, 4, 250, 13, 80})
	f.Add([]byte{0x24, 0xb0, 0x01, 0x03, 12, 1, 2, 3, 250, 251, 252, 0, 0, 9})
	f.Add([]byte{0x3d, 0xc8, 0xff, 0x25, 40, 17, 17, 17, 17, 128, 64, 32, 16})
	f.Add([]byte{0x0a, 0x90, 0x02, 0x40, 33, 5, 200, 100, 50, 25, 12, 6, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		nRuns, m := 2+int(data[0]%5), 3+int(data[0]>>3)%4
		maskOn, density := data[1]&0x80 != 0, data[1]&0x7f
		var tau float64
		switch data[2] {
		case 0:
			tau = 0 // DefaultTau
		case 1:
			tau = 1e-9
		default:
			tau = float64(data[2]) / 255
		}
		rest := data[4:] // data[3] is unused; the layout stays, so the corpus decodes as before
		pos := 0
		next := func() byte {
			if len(rest) == 0 {
				return 0
			}
			b := rest[pos%len(rest)]
			pos++
			return b + byte(pos/len(rest)) // later laps differ from the first
		}
		wins := make([]trainWindow, nRuns)
		for r := range wins {
			n := 8 + int(next())%33
			rows := make([][]float64, m)
			var valid [][]bool
			if maskOn {
				valid = make([][]bool, m)
			}
			for i := range rows {
				rows[i] = make([]float64, n)
				if maskOn {
					valid[i] = make([]bool, n)
				}
			}
			for t := 0; t < n; t++ {
				latent := float64(next())
				for i := range rows {
					if i <= m/2 {
						rows[i][t] = latent*float64(i+1) + float64(next()%8)
					} else {
						rows[i][t] = float64(next())
					}
					if maskOn {
						valid[i][t] = next()&0x7f >= density
					}
				}
			}
			wins[r] = trainWindow{rows: rows, valid: valid}
		}
		checkTrain(t, "fuzz", wins, tau, nil)
	})
}
