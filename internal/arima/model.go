// Package arima implements ARIMA(p,0,q) modelling from scratch for the
// CPI-based performance anomaly detector.
//
// InvarNet-X trains one ARIMA model per (workload type, node) on CPI traces
// from normal runs, stores it as the paper's five-tuple (p, d, q, ip, type),
// and at run time compares one-step-ahead CPI predictions against the
// observed CPI: residuals exceeding a threshold (Section 3.2 of the paper)
// signal a performance anomaly.
//
// The model has no I: d is 0 by construction. The CPI of a job under a fixed
// operation context is mean-stationary, and an integrating (d >= 1) model
// would adapt its one-step forecasts to a fault-induced CPI level shift
// within a couple of samples, leaving only a transient residual — the drift
// the detector exists to see would vanish. A d = 0 model stays anchored to
// the normal-state level, so a shift shows up as a sustained residual. Slow
// drift of the normal state itself is the lifecycle's and retraining's
// concern, not the one-step forecaster's.
//
// Estimation strategy, chosen to be robust on short noisy traces with only
// the standard library available:
//
//   - pure AR models are estimated by Yule-Walker (Levinson-Durbin on the
//     biased autocovariances), which is always stable;
//   - models with an MA component use the Hannan-Rissanen two-stage
//     algorithm: a long-AR pre-fit produces innovation estimates, then the
//     ARMA coefficients come from a least-squares regression on lagged
//     values and lagged innovations;
//   - order selection minimises AIC over a small (p,q) grid.
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

// Order identifies an ARIMA(p,0,q) specification.
type Order struct {
	P int // autoregressive terms
	Q int // moving-average terms
}

func (o Order) String() string { return fmt.Sprintf("ARIMA(%d,0,%d)", o.P, o.Q) }

// Model is a fitted ARIMA model. On the series x[t], it is
//
//	x[t] = c + sum_i AR[i]*x[t-i] + sum_j MA[j]*e[t-j] + e[t]
//
// with e ~ N(0, Sigma2).
type Model struct {
	Order     Order
	AR        []float64 // AR coefficients, AR[0] multiplies x[t-1]
	MA        []float64 // MA coefficients, MA[0] multiplies e[t-1]
	Intercept float64   // c
	Sigma2    float64   // innovation variance estimate
	N         int       // number of training observations
	AIC       float64
	LogLik    float64 // Gaussian CSS log-likelihood (up to constants)
}

// minTrain is the minimum training length accepted by Fit.
const minTrain = 12

// Fit estimates an ARIMA model of the given order on xs. xs is not modified.
func Fit(xs []float64, order Order) (*Model, error) {
	if order.P < 0 || order.Q < 0 {
		return nil, fmt.Errorf("arima: invalid order %v", order)
	}
	if len(xs) < minTrain || len(xs) <= order.P+order.Q+2 {
		return nil, ErrTooShort
	}
	m := &Model{Order: order, N: len(xs)}
	var err error
	switch {
	case order.P == 0 && order.Q == 0:
		err = m.fitMeanOnly(xs)
	case order.Q == 0:
		err = m.fitYuleWalker(xs)
	default:
		err = m.fitHannanRissanen(xs)
	}
	if err != nil {
		return nil, err
	}
	m.computeLikelihood(xs)
	return m, nil
}

// Residuals returns the one-step-ahead in-sample residuals of the model on
// xs. The first max(p,q) values, which cannot be predicted, are omitted.
// This is the R of the threshold rules in §3.2: "The absolute value of
// fitting residual is denoted by R."
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

// PredictSeries returns one-step-ahead predictions for xs. Prediction i
// corresponds to xs[max(p,q)+i]: the earliest sample with a full lag window.
func (m *Model) PredictSeries(xs []float64) ([]float64, error) {
	f := m.NewForecaster()
	if len(xs) <= f.lead {
		return nil, ErrTooShort
	}
	preds := make([]float64, 0, len(xs)-f.lead)
	for t, x := range xs {
		if t >= f.lead {
			preds = append(preds, f.predict())
		}
		f.Observe(x)
	}
	return preds, nil
}

// PredictNext returns the one-step-ahead forecast of the sample following
// history: "M'cpi(t) is the CPI data predicted by ARIMA model using previous
// CPI data". It replays history through a Forecaster; an online caller keeps
// the Forecaster instead and pays O(p+q) per sample.
func (m *Model) PredictNext(history []float64) (float64, error) {
	f := m.NewForecaster()
	for _, x := range history {
		f.Observe(x)
	}
	return f.PredictNext()
}

// computeLikelihood fills Sigma2, LogLik and AIC from the conditional
// sum-of-squares residuals on the training series xs.
func (m *Model) computeLikelihood(xs []float64) {
	f := m.NewForecaster()
	var css float64
	n := 0
	for t, v := range xs {
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
