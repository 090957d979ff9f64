// Package arima implements ARIMA(p,d,q) modelling from scratch for the
// CPI-based performance anomaly detector.
//
// InvarNet-X trains one ARIMA model per (workload type, node) on CPI traces
// from normal runs, stores it as the paper's five-tuple (p, d, q, ip, type),
// and at run time compares one-step-ahead CPI predictions against the
// observed CPI: residuals exceeding a threshold (Section 3.2 of the paper)
// signal a performance anomaly.
//
// Estimation strategy, chosen to be robust on short noisy traces with only
// the standard library available:
//
//   - the series is differenced d times (the "I" part);
//   - pure AR models are estimated by Yule-Walker (Levinson-Durbin on the
//     biased autocovariances), which is always stable;
//   - models with an MA component use the Hannan-Rissanen two-stage
//     algorithm: a long-AR pre-fit produces innovation estimates, then the
//     ARMA coefficients come from a least-squares regression on lagged
//     values and lagged innovations;
//   - order selection minimises AIC over a small (p,q) grid, with d chosen
//     by a variance-reduction heuristic (KPSS-style formal tests are
//     unnecessary at this data scale).
package arima

import (
	"errors"
	"fmt"
	"math"

	"invarnetx/internal/stats"
)

// ErrTooShort is returned when a training series cannot identify the
// requested model.
var ErrTooShort = errors.New("arima: series too short for requested order")

// Order identifies an ARIMA(p,d,q) specification.
type Order struct {
	P int // autoregressive terms
	D int // differencing order
	Q int // moving-average terms
}

func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,%d,%d)", o.P, o.D, o.Q) }

// Model is a fitted ARIMA model.
//
// On the d-times differenced series w[t], the model is
//
//	w[t] = c + sum_i AR[i]*w[t-i] + sum_j MA[j]*e[t-j] + e[t]
//
// with e ~ N(0, Sigma2).
type Model struct {
	Order     Order
	AR        []float64 // AR coefficients, AR[0] multiplies w[t-1]
	MA        []float64 // MA coefficients, MA[0] multiplies e[t-1]
	Intercept float64   // c
	Sigma2    float64   // innovation variance estimate
	N         int       // number of training observations (original scale)
	AIC       float64
	LogLik    float64 // Gaussian CSS log-likelihood (up to constants)
}

// minTrain is the minimum original-scale training length accepted by Fit.
const minTrain = 12

// Fit estimates an ARIMA model of the given order on xs.
func Fit(xs []float64, order Order) (*Model, error) {
	if order.P < 0 || order.D < 0 || order.Q < 0 {
		return nil, fmt.Errorf("arima: invalid order %v", order)
	}
	if len(xs) < minTrain || len(xs) <= order.D+order.P+order.Q+2 {
		return nil, ErrTooShort
	}
	w, err := difference(xs, order.D)
	if err != nil {
		return nil, err
	}
	m := &Model{Order: order, N: len(xs)}
	switch {
	case order.P == 0 && order.Q == 0:
		err = m.fitMeanOnly(w)
	case order.Q == 0:
		err = m.fitYuleWalker(w)
	default:
		err = m.fitHannanRissanen(w)
	}
	if err != nil {
		return nil, err
	}
	m.computeLikelihood(w)
	return m, nil
}

// difference returns the d-th order difference of xs — the "I" in ARIMA:
// diff^1(x)[t] = x[t] - x[t-1], applied d times, leaving len(xs) - d samples.
// xs is not modified.
func difference(xs []float64, d int) ([]float64, error) {
	if d < 0 {
		return nil, fmt.Errorf("arima: negative differencing order %d", d)
	}
	if len(xs) <= d {
		return nil, fmt.Errorf("arima: cannot difference %d samples %d times", len(xs), d)
	}
	cur := append([]float64(nil), xs...)
	for i := 0; i < d; i++ {
		next := make([]float64, len(cur)-1)
		for t := 1; t < len(cur); t++ {
			next[t-1] = cur[t] - cur[t-1]
		}
		cur = next
	}
	return cur, nil
}

// Residuals returns the one-step-ahead in-sample residuals of the model on
// xs (original scale). The first max(p,q)+d values, which cannot be
// predicted, are omitted. This is the R of the threshold rules in §3.2:
// "The absolute value of fitting residual is denoted by R."
func (m *Model) Residuals(xs []float64) ([]float64, error) {
	preds, err := m.PredictSeries(xs)
	if err != nil {
		return nil, err
	}
	skip := len(xs) - len(preds)
	res := make([]float64, len(preds))
	for i := range preds {
		res[i] = xs[skip+i] - preds[i]
	}
	return res, nil
}

// PredictSeries returns one-step-ahead predictions for xs on the original
// scale. Prediction i corresponds to xs[skip+i] where
// skip = d + max(p, q): the earliest sample with a full lag window.
func (m *Model) PredictSeries(xs []float64) ([]float64, error) {
	f := m.NewForecaster()
	skip := m.Order.D + f.lead
	if len(xs) <= skip {
		return nil, ErrTooShort
	}
	preds := make([]float64, 0, len(xs)-skip)
	for t, x := range xs {
		if t >= skip {
			preds = append(preds, f.predict())
		}
		f.Observe(x)
	}
	return preds, nil
}

// PredictNext returns the one-step-ahead forecast of the sample following
// history (original scale): "M'cpi(t) is the CPI data predicted by ARIMA
// model using previous CPI data". It replays history through a Forecaster;
// an online caller keeps the Forecaster instead and pays O(p+q) per sample.
func (m *Model) PredictNext(history []float64) (float64, error) {
	f := m.NewForecaster()
	for _, x := range history {
		f.Observe(x)
	}
	return f.PredictNext()
}

// computeLikelihood fills Sigma2, LogLik and AIC from the conditional
// sum-of-squares residuals on the differenced training series w.
func (m *Model) computeLikelihood(w []float64) {
	f := m.newForecaster(0) // w is already differenced
	var css float64
	n := 0
	for t, v := range w {
		e := f.Observe(v)
		if t >= f.lead {
			css += e * e
			n++
		}
	}
	if n == 0 {
		m.Sigma2 = 0
		m.LogLik = math.Inf(-1)
		m.AIC = math.Inf(1)
		return
	}
	m.Sigma2 = css / float64(n)
	if m.Sigma2 <= 0 {
		m.Sigma2 = 1e-12
	}
	m.LogLik = -0.5 * float64(n) * (math.Log(2*math.Pi*m.Sigma2) + 1)
	k := float64(m.Order.P + m.Order.Q + 1) // +1 for the intercept
	m.AIC = 2*k - 2*m.LogLik
}

// Diagnostics summarises the adequacy of a fitted model on a series: the
// Ljung-Box whiteness test on the one-step residuals plus the residual
// scale. A model whose residuals are not white has failed to capture the
// series' structure, and its anomaly thresholds will be miscalibrated.
type Diagnostics struct {
	LjungBoxQ float64
	PValue    float64
	Lags      int
	// ResidualSD is the standard deviation of the one-step residuals.
	ResidualSD float64
	// White reports whether whiteness is NOT rejected at the 5% level.
	White bool
}

// Diagnose runs residual diagnostics of the model against xs, using
// min(10, n/5) lags.
func (m *Model) Diagnose(xs []float64) (Diagnostics, error) {
	res, err := m.Residuals(xs)
	if err != nil {
		return Diagnostics{}, err
	}
	lags := 10
	if max := len(res)/5 - 1; lags > max {
		lags = max
	}
	if lags < 1 {
		return Diagnostics{}, ErrTooShort
	}
	q, p, err := stats.LjungBox(res, lags, m.Order.P+m.Order.Q)
	if err != nil {
		return Diagnostics{}, err
	}
	sd, err := stats.StdDev(res)
	if err != nil {
		return Diagnostics{}, err
	}
	return Diagnostics{
		LjungBoxQ:  q,
		PValue:     p,
		Lags:       lags,
		ResidualSD: sd,
		White:      p >= 0.05,
	}, nil
}
