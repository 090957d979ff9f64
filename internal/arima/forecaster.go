package arima

// Forecaster is the model's innovation recursion, and the only copy of it:
// it carries the one-step-ahead prediction state — the last max(p,q) values
// and the last max(p,q) innovations — so each observed sample costs O(p+q).
// The recursion is a deterministic forward pass from zero-seeded
// innovations; the batch entry points (PredictNext, PredictSeries, the
// likelihood) replay a series through one, and a long-lived online monitor
// keeps one and runs at wire speed with constant memory. The whole-history recursion it replaced lives
// on as the test reference (see TestForecasterMatchesPredictNext).
//
// A Forecaster is not safe for concurrent use.
type Forecaster struct {
	m    *Model
	lead int // max(p, q): lag window of the innovation recursion

	// w and e hold the last `lead` values and innovations, newest last
	// (innovations before index lead are the recursion's zero seeds). wn
	// counts samples observed.
	w, e []float64
	wn   int
}

// NewForecaster returns a streaming one-step forecaster for the model with
// no history yet; feed it samples with Observe.
func (m *Model) NewForecaster() *Forecaster {
	lead := m.Order.P
	if m.Order.Q > lead {
		lead = m.Order.Q
	}
	return &Forecaster{
		m:    m,
		lead: lead,
		w:    make([]float64, 0, lead),
		e:    make([]float64, 0, lead),
	}
}

// Observe advances the state with the next observed sample and returns its
// innovation — zero while the sample falls inside the recursion's lead-in.
func (f *Forecaster) Observe(x float64) float64 {
	// x is x[t], t = f.wn. Its innovation: zero inside the recursion's
	// lead-in, x[t] - pred(t) after.
	var e float64
	if f.wn >= f.lead {
		e = x - f.predict()
	}
	f.w = f.push(f.w, x)
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

// predict is the one-step forecast from the current lag state, without
// PredictNext's length gate: valid once wn >= lead (PredictSeries starts one
// sample before PredictNext is willing to).
func (f *Forecaster) predict() float64 {
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
// be observed next, without consuming it. ErrTooShort until more than
// max(p,q) samples were observed.
func (f *Forecaster) PredictNext() (float64, error) {
	if f.wn < f.lead+1 {
		return 0, ErrTooShort
	}
	return f.predict(), nil
}
