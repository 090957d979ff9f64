package stats

import "math"

// This file holds the streaming change-point detector behind the invariant
// lifecycle: a tiny constant-state test that decides, one observation at a
// time, whether the mean of a series has shifted upward. The invariant
// layer feeds it per-edge violation indicators (0/1 per diagnosed
// window); a persistent upward shift of the violation rate over its
// training-time expectation is the signature of a drifted invariant, as
// opposed to the short bursts a genuine fault produces.

// CUSUM is a one-sided cumulative-sum detector for an upward mean shift.
// Each observation adds (x − drift) to an accumulator clamped at zero; the
// detector alarms when the accumulator exceeds threshold. drift is the
// tolerated mean (observations at or below it never accumulate), threshold
// trades detection delay against false alarms: a series persistently at
// mean m > drift alarms after about threshold/(m − drift) observations,
// while isolated excursions drain back at drift per quiet observation.
//
// The zero value is unusable; construct with NewCUSUM. Not safe for
// concurrent use.
type CUSUM struct {
	drift     float64
	threshold float64
	sum       float64
}

// NewCUSUM returns a one-sided CUSUM with the given tolerated drift and
// alarm threshold (both must be finite; threshold must be positive).
func NewCUSUM(drift, threshold float64) *CUSUM {
	if math.IsNaN(drift) || math.IsInf(drift, 0) {
		drift = 0
	}
	if !(threshold > 0) || math.IsInf(threshold, 0) {
		threshold = 1
	}
	return &CUSUM{drift: drift, threshold: threshold}
}

// Offer feeds one observation and reports whether the detector is in alarm
// after it. Non-finite observations are ignored. The accumulator keeps
// integrating past the threshold, so Offer keeps returning true until
// Reset; callers that quarantine on first alarm simply stop offering.
func (c *CUSUM) Offer(x float64) bool {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return c.sum > c.threshold
	}
	c.sum += x - c.drift
	if c.sum < 0 {
		c.sum = 0
	}
	return c.sum > c.threshold
}

// Value returns the current accumulator — the evidence of an upward shift
// collected so far, in the same units as the observations.
func (c *CUSUM) Value() float64 { return c.sum }

// Reset clears the accumulator.
func (c *CUSUM) Reset() { c.sum = 0 }

// Restore sets the accumulator directly — used when resuming a persisted
// detector. Negative or non-finite values clamp to zero.
func (c *CUSUM) Restore(sum float64) {
	if math.IsNaN(sum) || math.IsInf(sum, 0) || sum < 0 {
		sum = 0
	}
	c.sum = sum
}
