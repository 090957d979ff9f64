// Package stats provides the numeric substrate for InvarNet-X: descriptive
// statistics, correlation measures, small dense linear algebra, polynomial
// least squares and deterministic random-variate generation.
//
// Everything is implemented on float64 slices with no external dependencies.
// Functions that cannot produce a meaningful answer for their input (empty
// slices, mismatched lengths, singular systems) return an error rather than
// NaN so that callers in the diagnosis pipeline fail loudly during training
// instead of silently producing broken models.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when an input sample is empty.
var ErrEmpty = errors.New("stats: empty sample")

// ErrLengthMismatch is returned when paired samples differ in length.
var ErrLengthMismatch = errors.New("stats: sample length mismatch")

// ErrNonFinite is returned when an input sample contains NaN or ±Inf.
// Telemetry gaps and corrupt collector readings surface as non-finite
// values; statistics over them are undefined, and returning this sentinel
// keeps a single bad sample from silently poisoning invariant scores and
// detection thresholds downstream.
var ErrNonFinite = errors.New("stats: non-finite sample value")

// AllFinite reports whether every element of xs is finite (no NaN, no ±Inf).
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// DropNonFinite returns xs with every NaN/±Inf element removed. When xs is
// already fully finite it is returned as-is (no copy).
func DropNonFinite(xs []float64) []float64 {
	if AllFinite(xs) {
		return xs
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// Sum returns the sum of xs. The sum of an empty slice is 0.
func Sum(xs []float64) float64 {
	// Kahan summation keeps long metric traces (tens of thousands of
	// samples) accurate enough for variance computations downstream.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	return Sum(xs) / float64(len(xs)), nil
}

// MustMean is Mean for callers that have already validated their input.
// It panics on an empty sample.
func MustMean(xs []float64) float64 {
	m, err := Mean(xs)
	if err != nil {
		panic(err)
	}
	return m
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It needs at least two observations.
func Variance(xs []float64) (float64, error) {
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: variance needs >= 2 samples, got %d", len(xs))
	}
	m := MustMean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1), nil
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Min returns the smallest element of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest element of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the "exclusive" R-7 definition used
// by most statistics packages). The paper uses the 95th percentile of CPI
// samples as the sufficient statistic for one job run.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Abs returns a new slice holding |x| for every x in xs.
func Abs(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Abs(x)
	}
	return out
}

// NormalizeToMin divides every element by the slice minimum, the
// normalisation the paper applies to both execution time and 95th-percentile
// CPI in Fig. 4 ("normalized to the minimum value"). The minimum must be
// strictly positive.
func NormalizeToMin(xs []float64) ([]float64, error) {
	m, err := Min(xs)
	if err != nil {
		return nil, err
	}
	if m <= 0 {
		return nil, fmt.Errorf("stats: cannot min-normalize with minimum %v", m)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / m
	}
	return out, nil
}
