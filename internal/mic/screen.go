package mic

import "math"

// Prescreen bound: a cheap, conservative lower bound on a pair's MIC,
// computed in O(n) from each Prepared's sort order, tie runs and
// equipartitions; this is the only file that knows ranks exist (spearman
// derives them per call). No product path calls ScreenLow: every trained
// pair of a diagnosed window is scored exactly. The file stays only because
// the end-to-end benchmark times the bound against the exact score
// (bench/layers.go l. 346); the roadmap's exact in-DP early exit deletes
// both.
//
// The bound itself is the mutual information of a both-axes equipartition
// at a few budget-admissible grid shapes, normalised exactly as the
// characteristic matrix is. The DP optimises one axis over a superset of
// these partitions, so the equipartition value cannot exceed the optimum —
// up to the superclump capping, which thins the boundary set the DP sees
// and can cost it a sliver of mutual information. screenMargin absorbs that
// approximation slop; TestScreenLowIsLowerBound pins the inequality
// empirically across coupled, noisy, monotone, non-monotone and tie-heavy
// inputs.

// screenMargin is subtracted from the equipartition bound to cover the
// superclump approximation in the exact DP (see charHalfPrepared): the DP may
// lose a little mutual information relative to an uncapped boundary set, so
// the screen must under-promise by at least that much.
const screenMargin = 0.05

// screenRhoGate is the minimum squared Spearman correlation at which the
// grid bound is worth computing. Equipartition grids only certify
// relationships with monotone mass (the same structure rank correlation
// sees), so when |rho| is small the bound would come out near zero anyway
// and the pair goes straight to the exact path.
const screenRhoGate = 0.25

// ScreenLow returns a conservative lower bound on Score(i, j), or 0 when no
// cheap certificate exists (degenerate metrics, weak rank correlation).
// Safe for concurrent use. It satisfies the invariant package's Prescreener
// interface.
func (b *Batch) ScreenLow(i, j int) float64 {
	px, py := b.prepared[i], b.prepared[j]
	if px == nil || py == nil {
		return 0
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	if rho := spearman(px, py, sc); rho*rho < screenRhoGate {
		return 0
	}
	return screenLow(px, py, sc)
}

// spearman returns the Spearman rank correlation of two prepared metrics,
// 0 when either is constant: two O(n) passes derive each metric's ranks
// into sc.prev and sc.curr, one more correlates them.
func spearman(px, py *Prepared, sc *scratch) float64 {
	sc.prev = resized(sc.prev, px.n)
	sc.curr = resized(sc.curr, py.n)
	rx, ssx := ranks(px, sc.prev)
	ry, ssy := ranks(py, sc.curr)
	if ssx == 0 || ssy == 0 {
		return 0
	}
	mean := float64(px.n+1) / 2
	var cov float64
	for t := 0; t < px.n; t++ {
		cov += (rx[t] - mean) * (ry[t] - mean)
	}
	return cov / math.Sqrt(ssx*ssy)
}

// ranks fills buf (n long) with p's fractional ranks by point — 1-based,
// ties averaged, read off its sort order and tie runs — and returns it with
// the ranks' sum of squared deviations from the mean rank (n+1)/2.
func ranks(p *Prepared, buf []float64) ([]float64, float64) {
	start := 0
	for _, end := range p.tieEnds {
		r := float64(start+end+1) / 2 // average 1-based rank of the tie run
		for k := start; k < end; k++ {
			buf[p.order[k]] = r
		}
		start = end
	}
	mean := float64(p.n+1) / 2
	var ss float64
	for _, r := range buf {
		d := r - mean
		ss += d * d
	}
	return buf, ss
}

// screenLow evaluates the both-axes-equipartition mutual information at a
// few budget-admissible grid shapes and returns the best normalised value
// minus screenMargin, clamped to [0,1].
func screenLow(px, py *Prepared, sc *scratch) float64 {
	maxRows := px.b / 2
	shapes := [3][2]int{{2, 2}, {2, maxRows}, {maxRows, 2}}
	var best float64
	for _, s := range shapes {
		a, r := s[0], s[1]
		if a < 2 || r < 2 || a*r > px.b {
			continue
		}
		if a >= len(px.rowsOK) || r >= len(py.rowsOK) || !px.rowsOK[a] || !py.rowsOK[r] {
			continue
		}
		norm := math.Log(math.Min(float64(a), float64(r)))
		if norm <= 0 {
			continue
		}
		mi := equipartitionMI(px.rowOf[a], py.rowOf[r], a, r, px.n, sc)
		if v := mi / norm; v > best {
			best = v
		}
	}
	best -= screenMargin
	if best < 0 {
		best = 0
	}
	if best > 1 {
		best = 1
	}
	return best
}

// equipartitionMI returns the mutual information of the joint distribution
// induced by assigning point t to cell (colOf[t], rowOf[t]) of an a×r grid.
func equipartitionMI(colOf, rowOf []int, a, r, n int, sc *scratch) float64 {
	sc.cum = resized(sc.cum, a*r+a+r)
	joint := sc.cum[:a*r]
	colTot := sc.cum[a*r : a*r+a]
	rowTot := sc.cum[a*r+a:]
	clear(sc.cum)
	for t := 0; t < n; t++ {
		joint[colOf[t]*r+rowOf[t]]++
		colTot[colOf[t]]++
		rowTot[rowOf[t]]++
	}
	var mi float64
	fn := float64(n)
	for i := 0; i < a; i++ {
		if colTot[i] == 0 {
			continue
		}
		for j := 0; j < r; j++ {
			c := joint[i*r+j]
			if c == 0 || rowTot[j] == 0 {
				continue
			}
			mi += float64(c) * math.Log(float64(c)*fn/float64(colTot[i]*rowTot[j]))
		}
	}
	mi /= fn
	if mi < 0 {
		mi = 0
	}
	return mi
}
