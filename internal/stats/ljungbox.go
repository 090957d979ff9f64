package stats

import (
	"fmt"
	"math"
)

// LjungBox computes the Ljung-Box portmanteau statistic of xs at the given
// number of lags:
//
//	Q = n(n+2) · Σ_{k=1..lags} ρ_k² / (n−k)
//
// Under the null hypothesis that xs is white noise, Q follows a chi-squared
// distribution with (lags − fitted) degrees of freedom, where fitted is the
// number of model parameters estimated from the data (p+q for ARMA
// residuals). The returned p-value is the right-tail probability; small
// values reject whiteness. The ARIMA layer uses it to judge whether a CPI
// model has captured the series' structure.
func LjungBox(xs []float64, lags, fitted int) (q, pValue float64, err error) {
	n := len(xs)
	if lags <= 0 {
		return 0, 0, fmt.Errorf("stats: non-positive lag count %d", lags)
	}
	if n <= lags+1 {
		return 0, 0, fmt.Errorf("stats: %d samples too few for %d lags", n, lags)
	}
	acf, err := autocorrelation(xs, lags)
	if err != nil {
		return 0, 0, err
	}
	for k := 1; k <= lags; k++ {
		q += acf[k] * acf[k] / float64(n-k)
	}
	q *= float64(n) * float64(n+2)
	dof := lags - fitted
	if dof < 1 {
		dof = 1
	}
	pValue = chiSquaredSurvival(q, dof)
	return q, pValue, nil
}

// chiSquaredSurvival returns P(X > x) for a chi-squared variable with k
// degrees of freedom, via the regularized upper incomplete gamma function.
func chiSquaredSurvival(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return upperGammaRegularized(float64(k)/2, x/2)
}

// upperGammaRegularized computes Q(a, x) = Γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the continued fraction otherwise (Numerical
// Recipes' gammp/gammq construction).
func upperGammaRegularized(a, x float64) float64 {
	switch {
	case x < 0 || a <= 0:
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - lowerGammaSeries(a, x)
	default:
		return upperGammaContinuedFraction(a, x)
	}
}

func lowerGammaSeries(a, x float64) float64 {
	const itmax = 200
	const eps = 1e-12
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < itmax; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func upperGammaContinuedFraction(a, x float64) float64 {
	const itmax = 200
	const eps = 1e-12
	const fpmin = 1e-300
	b := x + 1 - a
	c := 1 / fpmin
	d := 1 / b
	h := d
	for i := 1; i <= itmax; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = b + an/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	lg, _ := math.Lgamma(a)
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
