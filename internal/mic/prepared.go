package mic

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the MIC computation engine. The public entry points
// (compute, MIC, Batch) all funnel into computePair, which works
// over Prepared metrics and a scratch:
//
//   - Prepared holds everything about one metric that is independent of its
//     pairing partner: the sort permutation, the value-tie boundaries, and
//     the equipartition row assignment (plus its entropy) for every
//     admissible row count. In the invariant layer's exhaustive search each
//     metric participates in m−1 pairs, so that work is done once per
//     metric and shared.
//
//   - scratch carries the DP tables, clump buffers and the dense
//     characteristic half-matrices (flat slices indexed by (rows, cols)), so
//     a worker computing many pairs allocates nothing per pair.

// Prepared is the reusable per-metric preprocessing of one sample vector.
// Preparations are immutable after prepare returns and safe for concurrent
// use by any number of pair computations.
type Prepared struct {
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
}

// budgetFor returns the grid budget B(n) = n^alphaFor(n), floored at 4.
func budgetFor(n int) int {
	b := int(math.Floor(math.Pow(float64(n), alphaFor(n))))
	if b < 4 {
		b = 4
	}
	return b
}

// prepare validates one metric's samples and computes the preprocessing
// shared by every pair the metric participates in. The sample slice is
// retained (not copied) and must not be mutated while the preparation is in
// use. Degenerate samples report errTooFewSamples or errNonFinite, exactly
// as compute does.
func prepare(xs []float64) (*Prepared, error) {
	n := len(xs)
	if n < minSamples {
		return nil, errTooFewSamples
	}
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, errNonFinite
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return xs[order[a]] < xs[order[b]] })
	return newPrepared(xs, order), nil
}

// newPrepared builds a preparation from samples and a precomputed
// value-ascending point order, computing the tie boundaries and
// equipartitions shared by every pair the metric participates in. The caller
// guarantees xs holds at least minSamples finite values and that order is a
// permutation of [0,n) ascending by value (the relative order of equal
// values is immaterial: every consumer works at tie-group granularity).
// Both slices are retained, not copied. Slider maintains such an order
// incrementally across window advances and funnels in here, skipping the
// O(n log n) re-sort prepare pays.
func newPrepared(xs []float64, order []int) *Prepared {
	n := len(xs)
	p := &Prepared{vals: xs, n: n, b: budgetFor(n), order: order}
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

// scratch holds the working buffers of one MIC computation so repeated
// pairs reuse them; the zero value is empty, and buffers grow on first use.
// Not safe for concurrent use; give each worker its own.
type scratch struct {
	ends    []int     // clump boundaries: ends[0] = 0, ends[i] the exclusive end of clump i-1
	cum     []int     // flat (k+1)×rows cumulative row histogram, row i the points before ends[i]
	costTab []float64 // transposed bin costs, cost(s, t) at t*(k+1)+s
	prev    []float64 // DP levels l-1 and l
	curr    []float64
	char1   []float64 // dense characteristic half-matrices, stride b/2+1
	char2   []float64
}

// scratchPool serves every entry point that has no caller-owned scratch
// (compute, Batch.Score, Batch.ScreenLow): one warm set of buffers per
// concurrent scorer, process-wide.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// pooledPair is computePair on a pooled scratch.
func pooledPair(px, py *Prepared) result {
	sc := scratchPool.Get().(*scratch)
	res := computePair(px, py, sc)
	scratchPool.Put(sc)
	return res
}

// resized returns buf with n elements, reallocating only on growth.
// Contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// term is one row's contribution to the unnormalised conditional entropy of
// a column bin holding tot points, cnt of them in that row. The conversion
// rounds the product before any caller adds it, so no platform fuses the
// two and the table below holds exactly what a direct evaluation yields.
func term(tot, cnt int) float64 {
	if cnt == 0 {
		return 0
	}
	return float64(float64(cnt) * math.Log(float64(tot)/float64(cnt)))
}

// termCap is the largest sample count the term table covers; a longer
// window evaluates term directly, to the same bits.
const termCap = 512

// The term table: term(tot, cnt) at tot*(tot+1)/2 + cnt. A static array, so
// it is 1 MiB of address space but no heap, and only the rows a process
// fills are ever resident (4 KiB at n = 30).
var (
	termMu   sync.Mutex
	termRows atomic.Int32 // rows tot < termRows are filled and immutable
	termTab  [(termCap + 1) * (termCap + 2) / 2]float64
)

// termsFor returns the process-wide table of term(tot, cnt) for every
// cnt ≤ tot ≤ n, or nil when n exceeds termCap. cnt ≤ tot ≤ n admits only
// (n+1)(n+2)/2 distinct terms while one pair evaluates thousands, so the
// table is a memo of a pure function of its index: rows are filled under
// the mutex up to the largest n seen and published through termRows
// (readers take no lock and touch published rows only), on first use, so a
// process that never scores a pair never pays for it.
func termsFor(n int) []float64 {
	if n > termCap {
		return nil
	}
	if int(termRows.Load()) <= n {
		termMu.Lock()
		tot := int(termRows.Load())
		for ; tot <= n; tot++ {
			for cnt := 0; cnt <= tot; cnt++ {
				termTab[tot*(tot+1)/2+cnt] = term(tot, cnt)
			}
		}
		termRows.Store(int32(tot))
		termMu.Unlock()
	}
	return termTab[:]
}

// computePair evaluates both grid orientations into dense characteristic
// half-matrices and extracts the MIC.
func computePair(px, py *Prepared, sc *scratch) result {
	b := px.b
	res := result{N: px.n, B: b}
	dim := b/2 + 1
	sc.char1 = resized(sc.char1, dim*dim)
	sc.char2 = resized(sc.char2, dim*dim)
	clear(sc.char1)
	clear(sc.char2)
	terms := termsFor(px.n)
	// Orientation 1: rows from y, optimise the x axis; orientation 2 the
	// reverse. The element-wise maximum of both is taken, as in the
	// reference MINE implementation.
	charHalfPrepared(px, py, sc, terms, sc.char1, dim)
	charHalfPrepared(py, px, sc, terms, sc.char2, dim)
	for a := 2; a <= b/2; a++ {
		for r := 2; a*r <= b; r++ {
			v := sc.char1[r*dim+a]
			if w := sc.char2[a*dim+r]; w > v {
				v = w
			}
			if score := v / math.Log(math.Min(float64(a), float64(r))); score > res.MIC {
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

// charHalfPrepared fills out (dense and zeroed, entry (rows, cols) at
// rows*dim+cols) with max mutual information values I*(cols, rows) for one
// orientation: rowP is equipartitioned into rows bins and colP's axis is
// optimally partitioned by the DP. Entries with cols*rows <= budget are
// filled.
//
// Per row count, one walk over colP's tie groups builds the clumps — maximal
// runs any column partition must keep together: points sharing a column
// value stay together, and consecutive groups lying wholly in one and the
// same row are merged (a boundary strictly inside a single-row run never
// improves mutual information) — and, as each clump closes, its row of the
// cumulative histogram. Only group boundaries, membership and row counts are
// read, so the order of equal values inside colP.order is immaterial.
func charHalfPrepared(colP, rowP *Prepared, sc *scratch, terms, out []float64, dim int) {
	n, b, order := colP.n, colP.b, colP.order
	groups := len(colP.tieEnds)
	sc.ends = resized(sc.ends, groups+1)
	sc.cum = resized(sc.cum, (groups+1)*(b/2))
	ends, cum := sc.ends, sc.cum
	ends[0] = 0
	for rows := 2; rows <= b/2; rows++ {
		maxCols := b / rows
		if maxCols < 2 {
			break
		}
		if !rowP.rowsOK[rows] {
			continue
		}
		rowOf := rowP.rowOf[rows]
		// cum row k+1 is the running histogram of the open clump; closing
		// the clump freezes it and seeds the next row with a copy.
		clear(cum[:2*rows])
		k, openRow, start := 0, -1, 0
		for _, end := range colP.tieEnds {
			row := rowOf[order[start]] // the group's row, -1 when it spans several
			for p := start + 1; p < end; p++ {
				if rowOf[order[p]] != row {
					row = -1
					break
				}
			}
			if start > 0 && (row < 0 || row != openRow) {
				k++
				ends[k] = start
				copy(cum[(k+1)*rows:(k+2)*rows], cum[k*rows:(k+1)*rows])
			}
			hist := cum[(k+1)*rows:]
			for p := start; p < end; p++ {
				hist[rowOf[order[p]]]++
			}
			openRow, start = row, end
		}
		k++
		ends[k] = n
		// Cap the count at superclumpC*maxCols by merging adjacent clumps
		// into superclumps of roughly equal size, as in MINE's
		// GetSuperclumpsPartition: keep ~maxClumps boundaries evenly by
		// point count, compacting ends and cum together.
		if maxClumps := superclumpC * maxCols; k > maxClumps {
			target := float64(n) / float64(maxClumps)
			next, w := target, 0
			for i := 1; i <= k; i++ {
				if e := ends[i]; float64(e) >= next || i == k {
					w++
					ends[w] = e
					copy(cum[w*rows:(w+1)*rows], cum[i*rows:(i+1)*rows])
					next = float64(e) + target
				}
			}
			k = w
		}
		if k < 2 {
			continue
		}
		optimizeAxis(ends, cum, k, rows, rowP.hq[rows], n, sc, terms, out[rows*dim:rows*dim+maxCols+1])
	}
}

// binCost returns the unnormalised conditional-entropy contribution of a
// column bin covering clumps s..t-1: bs and bt are the offsets of cum rows s
// and t, tot the bin's point count.
func binCost(terms []float64, cum []int, bs, bt, rows, tot int) float64 {
	var c float64
	if terms == nil {
		for r := 0; r < rows; r++ {
			c += term(tot, cum[bt+r]-cum[bs+r])
		}
		return c
	}
	terms = terms[tot*(tot+1)/2:]
	for r := 0; r < rows; r++ {
		c += terms[cum[bt+r]-cum[bs+r]]
	}
	return c
}

// optimizeAxis runs the DP over the k clump boundaries, setting best[l] to
// the maximal mutual information using at most l columns for every l in
// [2, len(best)); best[0] and best[1] stay 0. hq is H(Q); n the total point
// count.
func optimizeAxis(ends, cum []int, k, rows int, hq float64, n int, sc *scratch, terms, best []float64) {
	k1 := k + 1
	last := len(best) - 1 // the deepest level the DP runs: min(maxCols, k)
	if last > k {
		last = k
	}
	// prev[t] = cost(0, t): clumps[0..t-1] as one column bin.
	sc.prev = resized(sc.prev, k1)
	sc.curr = resized(sc.curr, k1)
	prev, curr := sc.prev, sc.curr
	for t := 1; t <= k; t++ {
		prev[t] = binCost(terms, cum, 0, t*rows, rows, ends[t])
	}
	// costTab[t*k1+s] = cost(s, t) for 1 <= s < t, precomputed once — the
	// DP below would otherwise recompute each entry once per column count —
	// and transposed so the DP's inner loop over s is contiguous. The last
	// level reads row k only, so a two-column budget needs no other row.
	sc.costTab = resized(sc.costTab, k1*k1)
	costTab := sc.costTab
	t := 2
	if last == 2 {
		t = k
	}
	for ; t <= k; t++ {
		for s := 1; s < t; s++ {
			costTab[t*k1+s] = binCost(terms, cum, s*rows, t*rows, rows, ends[t]-ends[s])
		}
	}
	// Level l: curr[t] = min total cost partitioning clumps[0..t-1] into
	// exactly l column bins, finite exactly for t >= l. Level l+1 reads
	// curr[l..k-1] and the answer reads curr[k], so t starts at l, and at
	// the last level only t = k is filled.
	for l := 2; l <= last; l++ {
		t := l
		if l == last {
			t = k
		}
		for ; t <= k; t++ {
			m, cost := math.MaxFloat64, costTab[t*k1:]
			for s := l - 1; s < t; s++ {
				if v := prev[s] + cost[s]; v < m {
					m = v
				}
			}
			curr[t] = m
		}
		mi := hq - curr[k]/float64(n)
		if mi < 0 {
			mi = 0
		}
		// MI with <= l bins: monotone in l, so carry the running max.
		if mi < best[l-1] {
			mi = best[l-1]
		}
		best[l] = mi
		prev, curr = curr, prev
	}
	// More columns than clumps cannot improve the partition.
	for l := last + 1; l < len(best); l++ {
		best[l] = best[l-1]
	}
}
