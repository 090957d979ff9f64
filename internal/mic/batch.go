package mic

import (
	"errors"
	"fmt"
	"slices"
)

// Batch prepares every metric of a window once and scores pairs with
// shared preprocessing — the engine behind the invariant layer's
// pair-granular parallel matrix fill. Preparing costs one sort per metric;
// every one of the m(m−1)/2 pair computations then skips the per-call
// sorting and equipartitioning entirely and draws its DP buffers from the
// package's scratch pool, so Score is cheap enough to call from many workers
// at once.
type Batch struct {
	prepared []*Prepared // nil where the metric's samples are degenerate
}

// NewBatch validates the metric rows (all must share one length) and
// prepares each. A metric whose samples are degenerate (too few, non-finite)
// is not an error: every pair involving it scores 0, exactly the sentinel
// MIC returns for such inputs. Structural problems — no rows, ragged rows —
// are errors. The Config argument changes nothing (see Config).
func NewBatch(rows [][]float64, _ Config) (*Batch, error) {
	if len(rows) == 0 {
		return nil, errors.New("mic: batch needs at least one metric")
	}
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("mic: metric %d has %d samples, want %d", i, len(r), n)
		}
	}
	b := &Batch{prepared: make([]*Prepared, len(rows))}
	for i, r := range rows {
		b.prepared[i], _ = prepare(r) // nil, scoring 0, when degenerate
	}
	return b, nil
}

// NewBatchPrepared assembles a batch from already-built preparations, such
// as Slider snapshots. Nil entries mark degenerate metrics (masked windows,
// too few samples) and score 0 against every partner, exactly as NewBatch
// treats metrics whose rows fail prepare. All non-nil preparations must
// cover the same sample count.
func NewBatchPrepared(preps []*Prepared) (*Batch, error) {
	if len(preps) == 0 {
		return nil, errors.New("mic: batch needs at least one metric")
	}
	n := 0
	for i, p := range preps {
		if p == nil {
			continue
		}
		if n == 0 {
			n = p.n
			continue
		}
		if p.n != n {
			return nil, fmt.Errorf("mic: metric %d has %d samples, want %d", i, p.n, n)
		}
	}
	return &Batch{prepared: slices.Clone(preps)}, nil
}

// Score returns the MIC of metrics i and j, or 0 when either metric is
// degenerate — the same sentinel the MIC convenience wrapper returns for
// such data. Safe for concurrent use; it satisfies the invariant package's
// PairScorer interface.
func (b *Batch) Score(i, j int) float64 {
	px, py := b.prepared[i], b.prepared[j]
	if px == nil || py == nil {
		return 0
	}
	return pooledPair(px, py).MIC
}
