package mic

import "fmt"

// Test-side entry points: nothing outside this package's tests calls them,
// so they live here instead of widening the package's surface.

// MetricErr returns the preparation error of metric i (nil when the metric
// is usable). Degenerate metrics score 0 against every partner.
func (b *Batch) MetricErr(i int) error { return b.errs[i] }

// ComputePrepared returns the MIC analysis of two prepared metrics, reusing
// sc's buffers (a fresh scratch is used when sc is nil). Both preparations
// must cover samples of the same length under the same configuration.
func ComputePrepared(px, py *Prepared, sc *Scratch) (Result, error) {
	if px == nil || py == nil {
		return Result{}, fmt.Errorf("mic: nil preparation")
	}
	if px.n != py.n {
		return Result{}, fmt.Errorf("mic: prepared length mismatch %d vs %d", px.n, py.n)
	}
	if px.cfg != py.cfg {
		return Result{}, fmt.Errorf("mic: prepared config mismatch %+v vs %+v", px.cfg, py.cfg)
	}
	if sc == nil {
		sc = NewScratch()
	}
	return computePair(px, py, sc), nil
}
