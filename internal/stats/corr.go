package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. If either sample has zero variance the
// coefficient is defined here as 0 (no linear association detectable),
// which is the behaviour the invariant layer wants for constant metrics.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrLengthMismatch
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: pearson needs >= 2 samples, got %d", len(xs))
	}
	if !AllFinite(xs) || !AllFinite(ys) {
		return 0, ErrNonFinite
	}
	mx := MustMean(xs)
	my := MustMean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx := xs[i] - mx
		dy := ys[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Autocovariance returns the sample autocovariance of xs at lags 0..maxLag,
// using the biased (1/n) estimator, which guarantees a positive semidefinite
// autocovariance sequence — required by the Levinson-Durbin recursion in
// the ARIMA fitter.
func Autocovariance(xs []float64, maxLag int) ([]float64, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrEmpty
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("stats: maxLag %d out of range for %d samples", maxLag, n)
	}
	m := MustMean(xs)
	acov := make([]float64, maxLag+1)
	for lag := 0; lag <= maxLag; lag++ {
		var s float64
		for t := lag; t < n; t++ {
			s += (xs[t] - m) * (xs[t-lag] - m)
		}
		acov[lag] = s / float64(n)
	}
	return acov, nil
}

// autocorrelation returns the sample autocorrelation function of xs at lags
// 0..maxLag (ACF(0)==1). A constant series returns 1 at lag 0 and 0 at all
// other lags.
func autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	acov, err := Autocovariance(xs, maxLag)
	if err != nil {
		return nil, err
	}
	acf := make([]float64, len(acov))
	if acov[0] == 0 {
		acf[0] = 1
		return acf, nil
	}
	for i, c := range acov {
		acf[i] = c / acov[0]
	}
	return acf, nil
}
