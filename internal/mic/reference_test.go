package mic

import (
	"fmt"
	"math"
	"sort"
)

// Test-side entry points: nothing outside this package's tests calls them,
// so they live here instead of widening the package's surface.

// ComputePrepared returns the MIC analysis of two prepared metrics, reusing
// sc's buffers (a fresh scratch is used when sc is nil). Both preparations
// must cover samples of the same length.
func ComputePrepared(px, py *Prepared, sc *scratch) (result, error) {
	if px == nil || py == nil {
		return result{}, fmt.Errorf("mic: nil preparation")
	}
	if px.n != py.n {
		return result{}, fmt.Errorf("mic: prepared length mismatch %d vs %d", px.n, py.n)
	}
	if sc == nil {
		sc = new(scratch)
	}
	return computePair(px, py, sc), nil
}

// The reference kernel: the exact-MIC pair computation verbatim as it stood
// before prepared.go's rewrite (per-pair math.Log, full DP table, three passes
// over the points, tie-refinement sort). TestPairKernelMatchesReference and
// FuzzPairKernelEquivalence hold computePair to it bit for bit. The one
// edit: the cost accumulation rounds the product explicitly, so arm64 cannot
// fuse it into an FMA the production kernel's term table cannot reproduce.

// refScratch is the working set the reference kernel used.
type refScratch struct {
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

// referenceComputePair is computePair as it stood before the kernel rewrite:
// both grid orientations into dense characteristic half-matrices, then the
// normalised maximum.
func referenceComputePair(px, py *Prepared, sc *refScratch) result {
	b := px.b
	res := result{N: px.n, B: b}
	dim := b/2 + 1
	sc.char1 = resized(sc.char1, dim*dim)
	sc.char2 = resized(sc.char2, dim*dim)
	for i := range sc.char1 {
		sc.char1[i] = 0
	}
	for i := range sc.char2 {
		sc.char2[i] = 0
	}
	// Orientation 1: rows from y, optimise the x axis; orientation 2 the
	// reverse. The element-wise maximum of both is taken, as in the
	// reference MINE implementation.
	refCharHalfPrepared(px, py, sc, sc.char1, dim)
	refCharHalfPrepared(py, px, sc, sc.char2, dim)
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

// refCharHalfPrepared fills out (dense, entry (rows, cols) at rows*dim+cols)
// with max mutual information values I*(cols, rows) for one orientation:
// rowP is equipartitioned into rows bins and colP's axis is optimally
// partitioned by the DP. Entries with cols*rows <= budget are filled.
func refCharHalfPrepared(colP, rowP *Prepared, sc *refScratch, out []float64, dim int) {
	n, b := colP.n, colP.b
	// Points sorted by the column variable; ties refined by the row
	// variable to make clump construction deterministic.
	sc.idx = resized(sc.idx, n)
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
		ends := refBuildClumpEnds(colP.tieEnds, rowOf, sc.idx, superclumpC*maxCols, n, sc)
		if len(ends) < 2 {
			continue
		}
		best := refOptimizeAxis(ends, rowOf, sc.idx, rows, maxCols, rowP.hq[rows], n, sc)
		for cols := 2; cols <= maxCols; cols++ {
			if v := best[cols]; v > 0 {
				out[rows*dim+cols] = v
			}
		}
	}
}

// refBuildClumpEnds groups the column-sorted points into clumps — maximal runs
// any column partition must keep together: points sharing a column value
// stay together, and maximal same-row runs are merged (a boundary strictly
// inside a single-row run never improves mutual information). The count is
// then capped at maxClumps by merging adjacent clumps into superclumps of
// roughly equal size, as in MINE's GetSuperclumpsPartition. The returned
// slice of exclusive end indices is valid until the next call with sc.
func refBuildClumpEnds(tieEnds []int, rowOf, idx []int, maxClumps, n int, sc *refScratch) []int {
	sc.merged = refMergeSameRowRuns(sc.merged[:0], tieEnds, rowOf, idx)
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

// refMergeSameRowRuns appends to dst the clump ends remaining after collapsing
// consecutive clumps whose points all lie in a single row. ends are
// exclusive end indices into idx.
func refMergeSameRowRuns(dst []int, ends []int, rowOf, idx []int) []int {
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

// refOptimizeAxis runs the DP over clump boundaries, returning best[l] =
// maximal mutual information using at most l columns. hq is H(Q); n the
// total point count. The returned slice aliases sc and is valid until the
// next call.
func refOptimizeAxis(ends []int, rowOf, idx []int, rows, maxCols int, hq float64, n int, sc *refScratch) []float64 {
	k := len(ends)
	k1 := k + 1
	// cum[i*rows+r] = number of points in clumps[0..i-1] falling in row r.
	sc.cum = resized(sc.cum, k1*rows)
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
	sc.costTab = resized(sc.costTab, k1*k1)
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
				c += float64(float64(cnt) * math.Log(ft/float64(cnt)))
			}
			costTab[s*k1+t] = c
		}
	}
	const inf = math.MaxFloat64
	// dp over prev/curr: min total cost partitioning clumps[0..t-1] into
	// exactly l column bins.
	sc.prev = resized(sc.prev, k1)
	sc.curr = resized(sc.curr, k1)
	prev, curr := sc.prev, sc.curr
	for t := 0; t <= k; t++ {
		prev[t] = costTab[t] // cost(0, t)
	}
	sc.best = resized(sc.best, maxCols+1)
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
