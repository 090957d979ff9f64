package mic

import (
	"math"
	"sort"
)

// This file is the MIC computation engine. The public entry points
// (Compute, MIC, Batch) all funnel into computePair, which works
// over Prepared metrics and a Scratch:
//
//   - Prepared holds everything about one metric that is independent of its
//     pairing partner: the sort permutation, the value-tie boundaries, and
//     the equipartition row assignment (plus its entropy) for every
//     admissible row count. The reference implementation re-sorted each
//     series once per orientation *and* once per candidate row count inside
//     every pairwise call; in the invariant layer's exhaustive search each
//     metric participates in m−1 pairs, so that work is prepared exactly
//     once per metric and shared.
//
//   - Scratch carries the DP tables, clump buffers and the dense
//     characteristic half-matrices, so a worker computing many pairs
//     allocates (almost) nothing per pair. The characteristic matrices are
//     flat slices indexed by (rows, cols) — the map[gridKey]float64 the
//     reference used dominated the allocation profile.

// Prepared is the reusable per-metric preprocessing of one sample vector.
// Preparations are immutable after Prepare returns and safe for concurrent
// use by any number of pair computations.
type Prepared struct {
	cfg  Config // resolved configuration this preparation is valid for
	vals []float64
	n    int
	b    int // grid budget B(n)

	order   []int // point indices, ascending by value
	tieEnds []int // exclusive ends of equal-value runs in order

	// Equipartition of this metric as the row variable, per row count
	// r in [2, b/2]: rowOf[r][point] is the row assignment, hq[r] the row
	// entropy H(Q), and rowsOK[r] whether at least two rows are non-empty.
	rowOf  [][]int
	hq     []float64
	rowsOK []bool

	// Fractional ranks (1-based, ties averaged) and their sum of squared
	// deviations from the mean rank (n+1)/2 — the inputs the Spearman
	// prescreen needs, derived for free from order/tieEnds (see screen.go).
	ranks  []float64
	rankSS float64
}

// resolved returns cfg with zero values replaced by the sample-size
// defaults (adaptive alpha, C=5).
func (cfg Config) resolved(n int) Config {
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = alphaFor(n)
	}
	if cfg.C <= 0 {
		cfg.C = 5
	}
	return cfg
}

// budgetFor returns the grid budget B(n) = n^alpha, floored at 4.
func budgetFor(n int, alpha float64) int {
	b := int(math.Floor(math.Pow(float64(n), alpha)))
	if b < 4 {
		b = 4
	}
	return b
}

// Prepare validates one metric's samples and computes the preprocessing
// shared by every pair the metric participates in. The sample slice is
// retained (not copied) and must not be mutated while the preparation is in
// use. Degenerate samples report ErrTooFewSamples or ErrNonFinite, exactly
// as Compute does.
func Prepare(xs []float64, cfg Config) (*Prepared, error) {
	n := len(xs)
	if n < MinSamples {
		return nil, ErrTooFewSamples
	}
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	return newPrepared(xs, order, cfg), nil
}

// newPrepared builds a preparation from samples and a precomputed
// value-ascending point order, computing the tie boundaries, equipartitions
// and rank data shared by every pair the metric participates in. The caller
// guarantees xs holds at least MinSamples finite values and that order is a
// permutation of [0,n) ascending by value (the relative order of equal
// values is immaterial: every consumer works at tie-group granularity).
// Both slices are retained, not copied. Slider maintains such an order
// incrementally across window advances and funnels in here, skipping the
// O(n log n) re-sort Prepare pays.
func newPrepared(xs []float64, order []int, cfg Config) *Prepared {
	n := len(xs)
	cfg = cfg.resolved(n)
	p := &Prepared{cfg: cfg, vals: xs, n: n, b: budgetFor(n, cfg.Alpha), order: order}
	for i := 0; i < n; {
		j := i + 1
		for j < n && xs[p.order[j]] == xs[p.order[i]] {
			j++
		}
		p.tieEnds = append(p.tieEnds, j)
		i = j
	}
	maxRows := p.b / 2
	p.rowOf = make([][]int, maxRows+1)
	p.hq = make([]float64, maxRows+1)
	p.rowsOK = make([]bool, maxRows+1)
	counts := make([]int, maxRows+1)
	for rows := 2; rows <= maxRows; rows++ {
		rowOf := make([]int, n)
		hq, ok := p.equipartition(rows, rowOf, counts[:rows])
		p.rowOf[rows] = rowOf
		p.hq[rows] = hq
		p.rowsOK[rows] = ok
	}
	p.ranks = make([]float64, n)
	start := 0
	for _, end := range p.tieEnds {
		r := float64(start+end+1) / 2 // average 1-based rank of the tie run
		for k := start; k < end; k++ {
			p.ranks[p.order[k]] = r
		}
		start = end
	}
	mean := float64(n+1) / 2
	for _, r := range p.ranks {
		d := r - mean
		p.rankSS += d * d
	}
	return p
}

// equipartition assigns each point a row in [0, rows) so that rows hold as
// close to n/rows points as possible while keeping equal values together,
// walking the precomputed sorted order instead of re-sorting. It returns
// the entropy H(Q) of the row distribution and whether the partition is
// usable (at least two non-empty rows).
func (p *Prepared) equipartition(rows int, rowOf []int, counts []int) (float64, bool) {
	n := p.n
	target := float64(n) / float64(rows)
	row, inRow, start := 0, 0, 0
	for _, end := range p.tieEnds {
		size := end - start
		// Advance to the next row when the current one is full enough and
		// adding the tie group overshoots the target more than deferring.
		if inRow > 0 && row < rows-1 {
			overshoot := math.Abs(float64(inRow+size) - target)
			undershoot := math.Abs(float64(inRow) - target)
			if overshoot >= undershoot {
				row++
				inRow = 0
			}
		}
		for k := start; k < end; k++ {
			rowOf[p.order[k]] = row
		}
		inRow += size
		start = end
	}
	for i := range counts {
		counts[i] = 0
	}
	for _, r := range rowOf {
		counts[r]++
	}
	nonEmpty, h := 0, 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		nonEmpty++
		pf := float64(c) / float64(n)
		h -= pf * math.Log(pf)
	}
	return h, nonEmpty >= 2
}

// Scratch holds the working buffers of one MIC computation so repeated
// pairs reuse them. Not safe for concurrent use; give each worker its own.
type Scratch struct {
	idx     []int // column-order point indices, value ties refined by row value
	merged  []int // clump ends after same-row-run merging
	super   []int // superclump ends
	cum     []int // flat (k+1)×rows cumulative row histogram
	costTab []float64
	prev    []float64
	curr    []float64
	best    []float64
	char1   []float64 // dense characteristic half-matrices, stride b/2+1
	char2   []float64
}

// NewScratch returns an empty scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// intsFor returns buf resized to n elements, reallocating only on growth.
// Contents are unspecified.
func intsFor(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func floatsFor(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// computePair evaluates both grid orientations into dense characteristic
// half-matrices and extracts the MIC.
func computePair(px, py *Prepared, sc *Scratch) Result {
	b := px.b
	res := Result{N: px.n, B: b}
	dim := b/2 + 1
	sc.char1 = floatsFor(sc.char1, dim*dim)
	sc.char2 = floatsFor(sc.char2, dim*dim)
	for i := range sc.char1 {
		sc.char1[i] = 0
	}
	for i := range sc.char2 {
		sc.char2[i] = 0
	}
	// Orientation 1: rows from y, optimise the x axis; orientation 2 the
	// reverse. The element-wise maximum of both is taken, as in the
	// reference MINE implementation.
	charHalfPrepared(px, py, sc, sc.char1, dim)
	charHalfPrepared(py, px, sc, sc.char2, dim)
	for a := 2; a <= b/2; a++ {
		for r := 2; a*r <= b; r++ {
			v := sc.char1[r*dim+a]
			if w := sc.char2[a*dim+r]; w > v {
				v = w
			}
			norm := math.Log(math.Min(float64(a), float64(r)))
			if norm <= 0 {
				continue
			}
			if score := v / norm; score > res.MIC {
				res.MIC = score
				res.BestGrid = [2]int{a, r}
			}
		}
	}
	// Numerical safety: clamp to [0,1].
	if res.MIC > 1 {
		res.MIC = 1
	}
	if res.MIC < 0 {
		res.MIC = 0
	}
	return res
}

// charHalfPrepared fills out (dense, entry (rows, cols) at rows*dim+cols)
// with max mutual information values I*(cols, rows) for one orientation:
// rowP is equipartitioned into rows bins and colP's axis is optimally
// partitioned by the DP. Entries with cols*rows <= budget are filled.
func charHalfPrepared(colP, rowP *Prepared, sc *Scratch, out []float64, dim int) {
	n, b := colP.n, colP.b
	// Points sorted by the column variable; ties refined by the row
	// variable to make clump construction deterministic.
	sc.idx = intsFor(sc.idx, n)
	copy(sc.idx, colP.order)
	start := 0
	for _, end := range colP.tieEnds {
		if end-start > 1 {
			grp := sc.idx[start:end]
			sort.Slice(grp, func(a, b int) bool { return rowP.vals[grp[a]] < rowP.vals[grp[b]] })
		}
		start = end
	}
	maxRows := b / 2
	for rows := 2; rows <= maxRows; rows++ {
		maxCols := b / rows
		if maxCols < 2 {
			break
		}
		if !rowP.rowsOK[rows] {
			continue
		}
		rowOf := rowP.rowOf[rows]
		ends := buildClumpEnds(colP.tieEnds, rowOf, sc.idx, colP.cfg.C*maxCols, n, sc)
		if len(ends) < 2 {
			continue
		}
		best := optimizeAxis(ends, rowOf, sc.idx, rows, maxCols, rowP.hq[rows], n, sc)
		for cols := 2; cols <= maxCols; cols++ {
			if v := best[cols]; v > 0 {
				out[rows*dim+cols] = v
			}
		}
	}
}

// buildClumpEnds groups the column-sorted points into clumps — maximal runs
// any column partition must keep together: points sharing a column value
// stay together, and maximal same-row runs are merged (a boundary strictly
// inside a single-row run never improves mutual information). The count is
// then capped at maxClumps by merging adjacent clumps into superclumps of
// roughly equal size, as in MINE's GetSuperclumpsPartition. The returned
// slice of exclusive end indices is valid until the next call with sc.
func buildClumpEnds(tieEnds []int, rowOf, idx []int, maxClumps, n int, sc *Scratch) []int {
	sc.merged = mergeSameRowRuns(sc.merged[:0], tieEnds, rowOf, idx)
	raw := sc.merged
	if maxClumps < 2 {
		maxClumps = 2
	}
	if len(raw) <= maxClumps {
		return raw
	}
	// Superclumps: pick ~maxClumps boundaries evenly by point count.
	out := sc.super[:0]
	target := float64(n) / float64(maxClumps)
	next := target
	for k, e := range raw {
		if float64(e) >= next || k == len(raw)-1 {
			out = append(out, e)
			next = float64(e) + target
		}
	}
	sc.super = out
	return out
}

// mergeSameRowRuns appends to dst the clump ends remaining after collapsing
// consecutive clumps whose points all lie in a single row. ends are
// exclusive end indices into idx.
func mergeSameRowRuns(dst []int, ends []int, rowOf, idx []int) []int {
	uniformRow := func(start, end int) (int, bool) {
		r := rowOf[idx[start]]
		for p := start + 1; p < end; p++ {
			if rowOf[idx[p]] != r {
				return 0, false
			}
		}
		return r, true
	}
	start, i := 0, 0
	for i < len(ends) {
		r, ok := uniformRow(start, ends[i])
		j := i
		if ok {
			// Extend while subsequent clumps are uniform in the same row.
			for j+1 < len(ends) {
				r2, ok2 := uniformRow(ends[j], ends[j+1])
				if !ok2 || r2 != r {
					break
				}
				j++
			}
		}
		dst = append(dst, ends[j])
		start = ends[j]
		i = j + 1
	}
	return dst
}

// optimizeAxis runs the DP over clump boundaries, returning best[l] =
// maximal mutual information using at most l columns. hq is H(Q); n the
// total point count. The returned slice aliases sc and is valid until the
// next call.
func optimizeAxis(ends []int, rowOf, idx []int, rows, maxCols int, hq float64, n int, sc *Scratch) []float64 {
	k := len(ends)
	k1 := k + 1
	// cum[i*rows+r] = number of points in clumps[0..i-1] falling in row r.
	sc.cum = intsFor(sc.cum, k1*rows)
	cum := sc.cum
	for r := 0; r < rows; r++ {
		cum[r] = 0
	}
	start := 0
	for i, end := range ends {
		base, prev := (i+1)*rows, i*rows
		copy(cum[base:base+rows], cum[prev:prev+rows])
		for p := start; p < end; p++ {
			cum[base+rowOf[idx[p]]]++
		}
		start = end
	}
	// costTab[s*k1+t]: unnormalised conditional-entropy contribution of a
	// column bin covering clumps s..t-1, precomputed once — the DP below
	// would otherwise recompute each entry once per column count.
	sc.costTab = floatsFor(sc.costTab, k1*k1)
	costTab := sc.costTab
	for i := range costTab {
		costTab[i] = 0
	}
	for s := 0; s <= k; s++ {
		bs := s * rows
		for t := s + 1; t <= k; t++ {
			bt := t * rows
			var tot int
			for r := 0; r < rows; r++ {
				tot += cum[bt+r] - cum[bs+r]
			}
			if tot == 0 {
				continue
			}
			var c float64
			ft := float64(tot)
			for r := 0; r < rows; r++ {
				cnt := cum[bt+r] - cum[bs+r]
				if cnt == 0 {
					continue
				}
				c += float64(cnt) * math.Log(ft/float64(cnt))
			}
			costTab[s*k1+t] = c
		}
	}
	const inf = math.MaxFloat64
	// dp over prev/curr: min total cost partitioning clumps[0..t-1] into
	// exactly l column bins.
	sc.prev = floatsFor(sc.prev, k1)
	sc.curr = floatsFor(sc.curr, k1)
	prev, curr := sc.prev, sc.curr
	for t := 0; t <= k; t++ {
		prev[t] = costTab[t] // cost(0, t)
	}
	sc.best = floatsFor(sc.best, maxCols+1)
	best := sc.best
	for i := range best {
		best[i] = 0
	}
	for l := 2; l <= maxCols && l <= k; l++ {
		for t := 0; t <= k; t++ {
			curr[t] = inf
			for s := l - 1; s < t; s++ {
				if prev[s] == inf {
					continue
				}
				if v := prev[s] + costTab[s*k1+t]; v < curr[t] {
					curr[t] = v
				}
			}
		}
		if curr[k] < inf {
			mi := hq - curr[k]/float64(n)
			if mi < 0 {
				mi = 0
			}
			// MI with <= l bins: monotone in l, so carry the running max.
			if mi < best[l-1] {
				mi = best[l-1]
			}
			best[l] = mi
		} else {
			best[l] = best[l-1]
		}
		prev, curr = curr, prev
	}
	// Fill any remaining l (fewer clumps than columns) with the last value:
	// more columns than clumps cannot improve the partition.
	for l := k + 1; l >= 2 && l <= maxCols; l++ {
		best[l] = best[l-1]
	}
	sc.prev, sc.curr = prev, curr
	return best
}
