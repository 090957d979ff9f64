package arima

// Forecaster is the model's innovation recursion, and the only copy of it:
// it carries the one-step-ahead prediction state — the differencing seeds,
// the last max(p,q) differenced values and the last max(p,q) innovations —
// so each observed sample costs O(p+q). The recursion is a deterministic
// forward pass from zero-seeded innovations; the batch entry points
// (PredictNext, PredictSeries, the likelihood) replay a series
// through one, and a long-lived online monitor keeps one and runs at wire
// speed with constant memory. The whole-history recursion it replaced lives
// on as the test reference (see TestForecasterMatchesPredictNext).
//
// A Forecaster is not safe for concurrent use.
type Forecaster struct {
	m    *Model
	lead int // max(p, q): lag window of the innovation recursion

	// seeds[k] is the last value of the k-times differenced series seen so
	// far: what undoing the differencing of the next forecast needs.
	// seeded counts how many levels have their seed yet: level k produces
	// its first value only at the (k+1)-th raw sample.
	seeds  []float64
	seeded int

	// w and e hold the last `lead` differenced values and innovations,
	// newest last (innovations before index lead are the recursion's zero
	// seeds). wn counts differenced samples observed.
	w, e []float64
	wn   int
}

// NewForecaster returns a streaming one-step forecaster for the model with
// no history yet; feed it samples with Observe.
func (m *Model) NewForecaster() *Forecaster { return m.newForecaster(m.Order.D) }

// newForecaster is NewForecaster over a series differenced d times by the
// forecaster itself: the model's d for raw samples, 0 for a series the
// caller already differenced.
func (m *Model) newForecaster(d int) *Forecaster {
	lead := m.Order.P
	if m.Order.Q > lead {
		lead = m.Order.Q
	}
	return &Forecaster{
		m:     m,
		lead:  lead,
		seeds: make([]float64, d),
		w:     make([]float64, 0, lead),
		e:     make([]float64, 0, lead),
	}
}

// Observe advances the state with the next observed sample (original
// scale) and returns the sample's innovation on the differenced scale — zero
// while the sample only seeds a differencing level or falls inside the
// recursion's lead-in.
func (f *Forecaster) Observe(x float64) float64 {
	// Stream the d-fold differencing: each level keeps its previous value;
	// the first sample reaching a level only seeds it.
	v := x
	for k := range f.seeds {
		if f.seeded <= k {
			f.seeds[k] = v
			f.seeded = k + 1
			return 0
		}
		v, f.seeds[k] = v-f.seeds[k], v
	}
	// v is the next differenced value w[t], t = f.wn. Its innovation: zero
	// inside the recursion's lead-in, w[t] - pred(t) after.
	var e float64
	if f.wn >= f.lead {
		e = v - f.predictW()
	}
	f.w = f.push(f.w, v)
	f.e = f.push(f.e, e)
	f.wn++
	return e
}

// push appends newest-last into a lead-capacity lag slice, shifting when
// full. lead is tiny (the model's lag depth), so the shift is a few words;
// a mean-only model (lead 0) keeps no lags at all.
func (f *Forecaster) push(ring []float64, v float64) []float64 {
	if f.lead == 0 {
		return ring
	}
	if len(ring) == f.lead {
		copy(ring, ring[1:])
		ring[f.lead-1] = v
		return ring
	}
	return append(ring, v)
}

// predictW is the one-step forecast on the differenced scale from the
// current lag state. Valid once wn >= lead.
func (f *Forecaster) predictW() float64 {
	pred := f.m.Intercept
	n := len(f.w)
	for i, a := range f.m.AR {
		pred += a * f.w[n-1-i]
	}
	for j, b := range f.m.MA {
		pred += b * f.e[n-1-j]
	}
	return pred
}

// PredictNext returns the one-step-ahead forecast of the sample that would
// be observed next (original scale), without consuming it. ErrTooShort
// until more than d + max(p,q) samples were observed.
func (f *Forecaster) PredictNext() (float64, error) {
	if f.wn < f.lead+1 {
		return 0, ErrTooShort
	}
	return f.predict(), nil
}

// predict is PredictNext without the length gate; valid once wn >= lead
// (PredictSeries starts one sample before PredictNext is willing to).
func (f *Forecaster) predict() float64 {
	next := f.predictW()
	// Undo the differencing with the seed chain, innermost level first.
	for level := len(f.seeds) - 1; level >= 0; level-- {
		next += f.seeds[level]
	}
	return next
}
