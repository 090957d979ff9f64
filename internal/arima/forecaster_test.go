package arima

import (
	"math"
	"testing"

	"invarnetx/internal/stats"
)

// refRecursion is the whole-history innovation recursion the Forecaster
// replaced, kept as the reference: on the series xs it returns the one-step
// predictions from t = max(p,q) on and the innovations (zero inside the
// lead-in), building the latter up as e[t] = xs[t] - pred(xs[t]).
func refRecursion(m *Model, xs []float64) (preds, errs []float64, lead int) {
	lead = m.Order.P
	if m.Order.Q > lead {
		lead = m.Order.Q
	}
	errs = make([]float64, len(xs))
	for t := lead; t < len(xs); t++ {
		pred := m.Intercept
		for i, a := range m.AR {
			pred += a * xs[t-1-i]
		}
		for j, b := range m.MA {
			pred += b * errs[t-1-j]
		}
		errs[t] = xs[t] - pred
		preds = append(preds, pred)
	}
	return preds, errs, lead
}

// refPredictNext is the batch one-step forecast of the sample following
// history: the recursion over the whole history, then one more step.
func refPredictNext(m *Model, history []float64) (float64, error) {
	_, errs, lead := refRecursion(m, history)
	if len(history) <= lead {
		return 0, ErrTooShort
	}
	next := m.Intercept
	for i, a := range m.AR {
		next += a * history[len(history)-1-i]
	}
	for j, b := range m.MA {
		next += b * errs[len(errs)-1-j]
	}
	return next, nil
}

// TestForecasterMatchesPredictNext pins the one product recursion to the
// batch reference across AR/MA orders: at every prefix of a series the
// streaming forecaster and the reference return bit-identical forecasts and
// agree on when the history is long enough to predict at all; PredictSeries is bit-identical to the reference series;
// and the fitted likelihood equals the reference's sum of squares.
func TestForecasterMatchesPredictNext(t *testing.T) {
	rng := stats.NewRNG(610)
	xs := genAR(rng, 300, 0.3, []float64{0.5, 0.2}, 0.5)
	for _, order := range []Order{
		{P: 0, Q: 0},
		{P: 2, Q: 0},
		{P: 1, Q: 1},
		{P: 1, Q: 2},
		{P: 3, Q: 2},
	} {
		m, err := fit(xs, order)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		f := m.NewForecaster()
		for i := 0; i <= len(xs); i++ {
			// Before consuming xs[i], both views share history xs[:i]; the
			// last round is one step past the end of the series.
			want, wantErr := refPredictNext(m, xs[:i])
			got, gotErr := f.PredictNext()
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%v at %d: reference err %v, stream err %v", order, i, wantErr, gotErr)
			}
			if wantErr == nil && math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v at %d: stream %v != reference %v", order, i, got, want)
			}
			if i < len(xs) {
				f.Observe(xs[i])
			}
		}

		preds, err := m.PredictSeries(xs)
		if err != nil {
			t.Fatalf("%v: %v", order, err)
		}
		ref, errs, _ := refRecursion(m, xs)
		if len(preds) != len(ref) {
			t.Fatalf("%v: %d predictions, reference %d", order, len(preds), len(ref))
		}
		for i := range preds {
			if math.Float64bits(preds[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%v: prediction %d = %v, reference %v", order, i, preds[i], ref[i])
			}
		}

		var css float64
		for _, e := range errs[len(errs)-len(ref):] {
			css += e * e
		}
		if want := css / float64(len(ref)); math.Float64bits(m.Sigma2) != math.Float64bits(want) {
			t.Fatalf("%v: Sigma2 %v, reference %v", order, m.Sigma2, want)
		}
	}
}

// TestForecasterConstantMemory: the lag state never grows past the model's
// lead, however long the stream runs.
func TestForecasterConstantMemory(t *testing.T) {
	rng := stats.NewRNG(611)
	xs := genAR(rng, 200, 0.1, []float64{0.4}, 0.3)
	m, err := fit(xs, Order{P: 2, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := m.NewForecaster()
	for i := 0; i < 10000; i++ {
		f.Observe(rng.Normal(0, 1))
	}
	if len(f.w) > f.lead || cap(f.w) > f.lead || len(f.e) > f.lead || cap(f.e) > f.lead {
		t.Fatalf("lag state grew: len/cap w %d/%d e %d/%d, lead %d",
			len(f.w), cap(f.w), len(f.e), cap(f.e), f.lead)
	}
}
