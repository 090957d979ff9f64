package mic

import (
	"errors"
	"fmt"
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
	errs     []error     // the Prepare error for degenerate metrics
}

// NewBatch validates the metric rows (all must share one length) and
// prepares each. A metric whose samples are degenerate (too few, non-finite)
// is not an error: every pair involving it scores 0, exactly the sentinel
// MIC returns for such inputs. Structural problems — no rows, ragged rows —
// are errors.
func NewBatch(rows [][]float64, cfg Config) (*Batch, error) {
	if len(rows) == 0 {
		return nil, errors.New("mic: batch needs at least one metric")
	}
	n := len(rows[0])
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("mic: metric %d has %d samples, want %d", i, len(r), n)
		}
	}
	b := &Batch{
		prepared: make([]*Prepared, len(rows)),
		errs:     make([]error, len(rows)),
	}
	for i, r := range rows {
		p, err := Prepare(r, cfg)
		if err != nil {
			b.errs[i] = err
			continue
		}
		b.prepared[i] = p
	}
	return b, nil
}

// ErrNotPrepared marks a batch slot with no preparation: every pair the
// metric participates in scores 0, matching the degenerate-data sentinel.
var ErrNotPrepared = errors.New("mic: metric not prepared")

// NewBatchPrepared assembles a batch from already-built preparations —
// typically Slider snapshots maintained incrementally by the serving layer.
// Nil entries mark degenerate metrics (masked windows, too few samples) and
// score 0 against every partner, exactly as NewBatch treats metrics whose
// rows fail Prepare. All non-nil preparations must cover the same sample
// count under the same configuration.
func NewBatchPrepared(preps []*Prepared) (*Batch, error) {
	if len(preps) == 0 {
		return nil, errors.New("mic: batch needs at least one metric")
	}
	n, cfg, seen := 0, Config{}, false
	for i, p := range preps {
		if p == nil {
			continue
		}
		if !seen {
			n, cfg, seen = p.n, p.cfg, true
			continue
		}
		if p.n != n {
			return nil, fmt.Errorf("mic: metric %d has %d samples, want %d", i, p.n, n)
		}
		if p.cfg != cfg {
			return nil, fmt.Errorf("mic: metric %d prepared under config %+v, want %+v", i, p.cfg, cfg)
		}
	}
	b := &Batch{
		prepared: make([]*Prepared, len(preps)),
		errs:     make([]error, len(preps)),
	}
	for i, p := range preps {
		if p == nil {
			b.errs[i] = ErrNotPrepared
			continue
		}
		b.prepared[i] = p
	}
	return b, nil
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
