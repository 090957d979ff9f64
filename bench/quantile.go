package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, ascending values: the smallest value with at least p% of the
// sample at or below it. It returns 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(len(sorted), p)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// nearestRank returns ceil(p/100 * n), computed so that binary rounding of
// p/100 cannot push an exact product over the next integer.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailSupported reports whether a sample of n values has at least ten
// beyond its nearest-rank p-th percentile — the rule for quoting a tail
// percentile at all.
func tailSupported(n int, p float64) bool {
	return n-nearestRank(n, p) >= 10
}

// highestSupported returns the highest of the candidate percentiles the
// sample size supports, or 0 when it supports none.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if tailSupported(n, p) {
			best = p
		}
	}
	return best
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of xs (unsorted).
func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// mid returns the conventional median of xs: the mean of the two middle
// values for an even count.
func mid(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the exclusive
// method Python's statistics.quantiles(values, n=4) uses, so spreads printed
// here match the ones the acceptance driver computes. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// position k*(n+1)/4 on 1-based ranks, linearly interpolated; at the
		// ends the neighbouring pair extrapolates, as in Python
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}
