package arima

import (
	"fmt"

	"invarnetx/internal/stats"
)

// fitMeanOnly handles ARIMA(0,0,0): white noise around a mean.
func (m *Model) fitMeanOnly(w []float64) error {
	mean, err := stats.Mean(w)
	if err != nil {
		return err
	}
	m.Intercept = mean
	return nil
}

// fitYuleWalker estimates a pure AR(p) model on the series w
// by solving the Yule-Walker equations with the Levinson recursion.
// Yule-Walker estimates are guaranteed to define a stationary AR process,
// which keeps online forecasting stable even on ill-behaved CPI traces.
func (m *Model) fitYuleWalker(w []float64) error {
	p := m.Order.P
	acov, err := stats.Autocovariance(w, p)
	if err != nil {
		return err
	}
	if acov[0] == 0 {
		// Constant series: AR terms are irrelevant.
		m.AR = make([]float64, p)
		m.Intercept = w[0]
		return nil
	}
	phi, err := stats.SolveToeplitz(acov[:p], acov[1:p+1])
	if err != nil {
		return fmt.Errorf("arima: yule-walker: %w", err)
	}
	m.AR = phi
	// Intercept so that the process mean matches the sample mean:
	// c = mu * (1 - sum(phi)).
	mean := stats.MustMean(w)
	sumPhi := 0.0
	for _, a := range phi {
		sumPhi += a
	}
	m.Intercept = mean * (1 - sumPhi)
	return nil
}

// fitHannanRissanen estimates an ARMA(p,q) model on w using the two-stage
// Hannan-Rissanen algorithm:
//
//  1. fit a long AR model (order ~ min(n/4, 2*(p+q)+8)) by Yule-Walker and
//     compute its residuals as innovation estimates ê[t];
//  2. regress w[t] on (1, w[t-1..t-p], ê[t-1..t-q]) by least squares.
func (m *Model) fitHannanRissanen(w []float64) error {
	p, q := m.Order.P, m.Order.Q
	longP := 2*(p+q) + 8
	if max := len(w)/4 + 1; longP > max {
		longP = max
	}
	if longP < p+1 {
		longP = p + 1
	}
	if len(w) <= longP+2 {
		return ErrTooShort
	}
	// Stage 1: long AR pre-fit for innovations.
	pre := &Model{Order: Order{P: longP}}
	if err := pre.fitYuleWalker(w); err != nil {
		return err
	}
	innov := make([]float64, len(w))
	for t := longP; t < len(w); t++ {
		pred := pre.Intercept
		for i, a := range pre.AR {
			pred += a * w[t-1-i]
		}
		innov[t] = w[t] - pred
	}
	// Stage 2: least squares on lagged values and lagged innovations.
	lead := longP
	if p > lead {
		lead = p
	}
	if q > lead {
		lead = q
	}
	var x [][]float64
	var y []float64
	for t := lead + q; t < len(w); t++ {
		row := make([]float64, 0, 1+p+q)
		row = append(row, 1)
		for i := 1; i <= p; i++ {
			row = append(row, w[t-i])
		}
		for j := 1; j <= q; j++ {
			row = append(row, innov[t-j])
		}
		x = append(x, row)
		y = append(y, w[t])
	}
	if len(x) < 1+p+q {
		return ErrTooShort
	}
	beta, err := stats.LeastSquares(x, y)
	if err != nil {
		return fmt.Errorf("arima: hannan-rissanen stage 2: %w", err)
	}
	m.Intercept = beta[0]
	m.AR = append([]float64(nil), beta[1:1+p]...)
	m.MA = append([]float64(nil), beta[1+p:]...)
	m.clampStability()
	return nil
}

// clampStability shrinks explosive coefficient vectors. Hannan-Rissanen can
// occasionally produce AR polynomials with roots inside the unit circle on
// short noisy traces; an explosive model makes the online detector useless
// (forecasts diverge, every sample flags). A cheap sufficient condition for
// stationarity is sum|AR| < 1; when violated we rescale toward it. This
// trades a little fit quality for guaranteed bounded forecasts.
func (m *Model) clampStability() {
	var s float64
	for _, a := range m.AR {
		if a < 0 {
			s -= a
		} else {
			s += a
		}
	}
	const limit = 0.98
	if s > limit {
		f := limit / s
		for i := range m.AR {
			m.AR[i] *= f
		}
	}
	// MA coefficients only feed back through estimated innovations; clamp
	// them the same way to keep the innovation recursion from ringing.
	s = 0
	for _, b := range m.MA {
		if b < 0 {
			s -= b
		} else {
			s += b
		}
	}
	if s > limit {
		f := limit / s
		for i := range m.MA {
			m.MA[i] *= f
		}
	}
}
