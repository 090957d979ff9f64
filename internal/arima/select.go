package arima

import "math"

// SelectConfig bounds the automatic order search.
type SelectConfig struct {
	MaxP int // maximum AR order (default 3)
	MaxQ int // maximum MA order (default 2)
}

// DefaultSelectConfig matches the small orders that CPI traces need; the
// paper's previous work fits low-order ARIMA models on 10 s resource
// samples.
func DefaultSelectConfig() SelectConfig {
	return SelectConfig{MaxP: 3, MaxQ: 2}
}

// AutoFit searches ARIMA(p,0,q) orders within cfg and returns the model with
// the lowest AIC; ties in AIC break toward the simpler model (smaller p+q,
// then smaller p). A zero-valued cfg takes the defaults; negative bounds mean
// "exactly zero" (e.g. MaxP=-1, MaxQ=-1 forces a mean-only search).
func AutoFit(xs []float64, cfg SelectConfig) (*Model, error) {
	if cfg == (SelectConfig{}) {
		cfg = DefaultSelectConfig()
	}
	if cfg.MaxP < 0 {
		cfg.MaxP = 0
	}
	if cfg.MaxQ < 0 {
		cfg.MaxQ = 0
	}
	if len(xs) < minTrain {
		return nil, ErrTooShort
	}
	var best *Model
	for p := 0; p <= cfg.MaxP; p++ {
		for q := 0; q <= cfg.MaxQ; q++ {
			m, err := fit(xs, Order{P: p, Q: q})
			if err != nil {
				continue
			}
			if math.IsNaN(m.AIC) || math.IsInf(m.AIC, 0) {
				continue
			}
			if best == nil || better(m, best) {
				best = m
			}
		}
	}
	if best == nil {
		// Fall back to the simplest possible model.
		return fit(xs, Order{})
	}
	return best, nil
}

// better reports whether candidate a should replace incumbent b.
func better(a, b *Model) bool {
	const tol = 1e-9
	if a.AIC < b.AIC-tol {
		return true
	}
	if a.AIC > b.AIC+tol {
		return false
	}
	ka := a.Order.P + a.Order.Q
	kb := b.Order.P + b.Order.Q
	if ka != kb {
		return ka < kb
	}
	return a.Order.P < b.Order.P
}

// FitMulti trains a single model on several independent traces of the same
// process by fitting each trace and keeping the coefficients of the fit
// with the lowest per-observation AIC, then pooling the residual variance
// across all traces. The paper trains on "N (e.g. 10) complete normal
// execution traces" per workload; traces cannot simply be concatenated
// because the seam would look like a level shift.
func FitMulti(traces [][]float64, cfg SelectConfig) (*Model, error) {
	var best *Model
	bestScore := math.Inf(1)
	for _, tr := range traces {
		m, err := AutoFit(tr, cfg)
		if err != nil {
			continue
		}
		score := m.AIC / float64(m.N)
		if score < bestScore {
			best, bestScore = m, score
		}
	}
	if best == nil {
		return nil, ErrTooShort
	}
	// Pool residual variance over every trace the chosen model can score.
	var css float64
	var n int
	for _, tr := range traces {
		res, err := best.Residuals(tr)
		if err != nil {
			continue
		}
		for _, r := range res {
			css += r * r
		}
		n += len(res)
	}
	if n > 0 {
		best.Sigma2 = css / float64(n)
	}
	return best, nil
}
