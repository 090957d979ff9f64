package mic

import "math"

// This file is baseline *re-estimation*: a Decayed folds the association
// scores of successive windows into an exponentially-decayed running
// estimate. The invariant lifecycle uses one per quarantined edge — each new
// clean window contributes its exact score, recent windows dominate, and the
// converged value becomes the edge's candidate baseline in the shadow model
// generation.

// Decayed is an exponentially-decayed mean of a stream of scores. The
// estimate is bias-corrected (a fresh estimator returns its first score
// exactly, not alpha·score), via the standard weighted-numerator /
// weighted-denominator form. The zero value is unusable; construct with
// NewDecayed. Not safe for concurrent use.
type Decayed struct {
	alpha    float64
	num, den float64
	n        int64
}

// DefaultDecayAlpha is the default weight of the newest score: an effective
// memory of roughly 1/alpha = 4 windows, short enough to track a shifted
// coupling and long enough to smooth per-window MIC jitter.
const DefaultDecayAlpha = 0.25

// NewDecayed returns an empty estimator with the given newest-score weight
// in (0, 1]; out-of-range alphas select DefaultDecayAlpha.
func NewDecayed(alpha float64) *Decayed {
	if !(alpha > 0) || alpha > 1 || math.IsNaN(alpha) {
		alpha = DefaultDecayAlpha
	}
	return &Decayed{alpha: alpha}
}

// Add folds one score into the estimate. Non-finite scores are ignored —
// a degenerate window must not poison the candidate baseline.
func (d *Decayed) Add(score float64) {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return
	}
	d.num = (1-d.alpha)*d.num + d.alpha*score
	d.den = (1-d.alpha)*d.den + d.alpha
	d.n++
}

// Value returns the current decayed estimate and whether any score has
// been absorbed.
func (d *Decayed) Value() (float64, bool) {
	if d.den == 0 {
		return 0, false
	}
	return d.num / d.den, true
}

// N returns how many scores have been absorbed.
func (d *Decayed) N() int64 { return d.n }

// Reset empties the estimator, keeping its alpha.
func (d *Decayed) Reset() { d.num, d.den, d.n = 0, 0, 0 }

// Restore primes the estimator with a persisted estimate standing in for n
// absorbed scores. The decayed weighting history is collapsed: the restored
// estimate behaves like a single fully-weighted observation at value, which
// is exact for the estimate itself and conservative for its inertia.
func (d *Decayed) Restore(value float64, n int64) {
	d.Reset()
	if n <= 0 || math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	d.num, d.den, d.n = value, 1, n
}
