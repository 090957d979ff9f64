package arima

import (
	"math"
	"testing"

	"invarnetx/internal/stats"
)

// genAR produces an AR process with the given coefficients.
func genAR(rng *stats.RNG, n int, c float64, phi []float64, sd float64) []float64 {
	xs := make([]float64, n)
	for t := len(phi); t < n; t++ {
		v := c + rng.Normal(0, sd)
		for i, a := range phi {
			v += a * xs[t-1-i]
		}
		xs[t] = v
	}
	return xs
}

func TestFitAR1Recovery(t *testing.T) {
	rng := stats.NewRNG(100)
	xs := genAR(rng, 5000, 1.0, []float64{0.7}, 0.5)
	m, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.05 {
		t.Errorf("AR[0] = %v, want ~0.7", m.AR[0])
	}
	// Process mean is c/(1-phi) = 1/0.3; intercept should recover c.
	if math.Abs(m.Intercept-1.0) > 0.15 {
		t.Errorf("Intercept = %v, want ~1.0", m.Intercept)
	}
	if math.Abs(m.Sigma2-0.25) > 0.05 {
		t.Errorf("Sigma2 = %v, want ~0.25", m.Sigma2)
	}
}

func TestFitAR2Recovery(t *testing.T) {
	rng := stats.NewRNG(101)
	xs := genAR(rng, 8000, 0, []float64{0.5, -0.3}, 1)
	m, err := fit(xs, Order{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.5) > 0.05 || math.Abs(m.AR[1]+0.3) > 0.05 {
		t.Errorf("AR = %v, want ~[0.5 -0.3]", m.AR)
	}
}

func TestFitMA1Recovery(t *testing.T) {
	rng := stats.NewRNG(102)
	n := 10000
	e := make([]float64, n)
	xs := make([]float64, n)
	for t := 0; t < n; t++ {
		e[t] = rng.Normal(0, 1)
		xs[t] = e[t]
		if t > 0 {
			xs[t] += 0.6 * e[t-1]
		}
	}
	m, err := fit(xs, Order{Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.MA[0]-0.6) > 0.1 {
		t.Errorf("MA[0] = %v, want ~0.6", m.MA[0])
	}
}

func TestFitARMA11(t *testing.T) {
	rng := stats.NewRNG(103)
	n := 12000
	e := make([]float64, n)
	xs := make([]float64, n)
	for t := 1; t < n; t++ {
		e[t] = rng.Normal(0, 1)
		xs[t] = 0.5*xs[t-1] + e[t] + 0.4*e[t-1]
	}
	m, err := fit(xs, Order{P: 1, Q: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.5) > 0.1 {
		t.Errorf("AR[0] = %v, want ~0.5", m.AR[0])
	}
	if math.Abs(m.MA[0]-0.4) > 0.15 {
		t.Errorf("MA[0] = %v, want ~0.4", m.MA[0])
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := fit([]float64{1, 2, 3}, Order{P: 1}); err != ErrTooShort {
		t.Errorf("short series err = %v, want ErrTooShort", err)
	}
	xs := make([]float64, 100)
	if _, err := fit(xs, Order{P: -1}); err == nil {
		t.Error("negative order should error")
	}
}

func TestResidualsWhiteOnTrueModel(t *testing.T) {
	rng := stats.NewRNG(104)
	xs := genAR(rng, 4000, 0.5, []float64{0.6}, 0.3)
	m, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Residuals(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(xs)-1 {
		t.Errorf("len(res) = %d, want %d", len(res), len(xs)-1)
	}
	mean := stats.MustMean(res)
	if math.Abs(mean) > 0.02 {
		t.Errorf("residual mean = %v, want ~0", mean)
	}
	acf, err := autocorrelation(res, 3)
	if err != nil {
		t.Fatal(err)
	}
	for lag := 1; lag <= 3; lag++ {
		if math.Abs(acf[lag]) > 0.06 {
			t.Errorf("residual ACF(%d) = %v, want ~0 (white)", lag, acf[lag])
		}
	}
}

// autocorrelation returns the sample autocorrelation of xs at lags
// 0..maxLag: each autocovariance over the lag-0 one.
func autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	acov, err := stats.Autocovariance(xs, maxLag)
	if err != nil {
		return nil, err
	}
	acf := make([]float64, len(acov))
	for lag, c := range acov {
		acf[lag] = c / acov[0]
	}
	return acf, nil
}

func TestPredictNextMatchesSeries(t *testing.T) {
	rng := stats.NewRNG(105)
	xs := genAR(rng, 500, 0.2, []float64{0.6, 0.2}, 0.4)
	m, err := fit(xs, Order{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A forecaster's PredictNext after a prefix must equal the matching
	// PredictSeries entry.
	preds, err := m.PredictSeries(xs)
	if err != nil {
		t.Fatal(err)
	}
	skip := len(xs) - len(preds)
	for _, cut := range []int{50, 100, 400} {
		f := m.NewForecaster()
		for _, x := range xs[:cut] {
			f.Observe(x)
		}
		next, err := f.PredictNext()
		if err != nil {
			t.Fatal(err)
		}
		want := preds[cut-skip]
		if math.Abs(next-want) > 1e-9 {
			t.Errorf("PredictNext at %d = %v, want %v", cut, next, want)
		}
	}
}

func TestForecastHorizonConvergesToMean(t *testing.T) {
	rng := stats.NewRNG(107)
	xs := genAR(rng, 3000, 1.0, []float64{0.5}, 0.3)
	m, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Holding future innovations at zero — each forecast observed as if it
	// had arrived — AR(1) forecasts converge geometrically to the process
	// mean c/(1-phi).
	f := m.NewForecaster()
	for _, x := range xs {
		f.Observe(x)
	}
	var last float64
	for h := 0; h < 50; h++ {
		if last, err = f.PredictNext(); err != nil {
			t.Fatal(err)
		}
		f.Observe(last)
	}
	wantMean := m.Intercept / (1 - m.AR[0])
	if math.Abs(last-wantMean) > 0.05 {
		t.Errorf("long-horizon forecast = %v, want ~%v", last, wantMean)
	}
}

func TestForecastErrors(t *testing.T) {
	rng := stats.NewRNG(108)
	xs := genAR(rng, 100, 0, []float64{0.5}, 1)
	m, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := m.NewForecaster()
	f.Observe(xs[0])
	if _, err := f.PredictNext(); err != ErrTooShort {
		t.Errorf("tiny history err = %v, want ErrTooShort", err)
	}
}

func TestAutoFitPrefersTrueOrder(t *testing.T) {
	rng := stats.NewRNG(110)
	xs := genAR(rng, 4000, 0, []float64{0.6, -0.25}, 1)
	m, err := AutoFit(xs, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Order.P < 2 {
		t.Errorf("AutoFit chose p=%d, want >= 2 for AR(2) data", m.Order.P)
	}
	// One-step residual variance should be near the innovation variance.
	if m.Sigma2 > 1.2 || m.Sigma2 < 0.8 {
		t.Errorf("Sigma2 = %v, want ~1", m.Sigma2)
	}
	// The fitters read the caller's slice directly: no order of the search
	// grid may write to it.
	orig := append([]float64(nil), xs...)
	cfg := DefaultSelectConfig()
	for p := 0; p <= cfg.MaxP; p++ {
		for q := 0; q <= cfg.MaxQ; q++ {
			if _, err := fit(xs, Order{P: p, Q: q}); err != nil {
				t.Fatalf("fit(%d,%d): %v", p, q, err)
			}
			for i := range xs {
				if math.Float64bits(xs[i]) != math.Float64bits(orig[i]) {
					t.Fatalf("fit(%d,%d) wrote xs[%d]: %v, was %v", p, q, i, xs[i], orig[i])
				}
			}
		}
	}
}

func TestAutoFitShortSeries(t *testing.T) {
	if _, err := AutoFit([]float64{1, 2, 3}, DefaultSelectConfig()); err != ErrTooShort {
		t.Errorf("err = %v, want ErrTooShort", err)
	}
}

func TestFitMultiPoolsVariance(t *testing.T) {
	rng := stats.NewRNG(111)
	var traces [][]float64
	for i := 0; i < 5; i++ {
		traces = append(traces, genAR(rng.Fork(int64(i)), 600, 1.0, []float64{0.6}, 0.3))
	}
	m, err := FitMulti(traces, DefaultSelectConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Sigma2-0.09) > 0.03 {
		t.Errorf("pooled Sigma2 = %v, want ~0.09", m.Sigma2)
	}
	if _, err := FitMulti(nil, DefaultSelectConfig()); err != ErrTooShort {
		t.Errorf("FitMulti(nil) err = %v", err)
	}
}

func TestClampStabilityBoundsForecasts(t *testing.T) {
	// Construct a model with explosive coefficients and verify clamping.
	m := &Model{Order: Order{P: 2}, AR: []float64{1.2, 0.5}}
	m.clampStability()
	var s float64
	for _, a := range m.AR {
		s += math.Abs(a)
	}
	if s > 0.99 {
		t.Errorf("clamped |AR| sum = %v, want < 0.99", s)
	}
}

func TestOrderString(t *testing.T) {
	if got := (Order{P: 1, Q: 3}).String(); got != "ARIMA(1,0,3)" {
		t.Errorf("String = %q", got)
	}
}

func TestAICPenalisesOverfit(t *testing.T) {
	rng := stats.NewRNG(112)
	xs := genAR(rng, 3000, 0, []float64{0.5}, 1)
	m1, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	m5, err := fit(xs, Order{P: 3, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m5.AIC < m1.AIC-4 {
		t.Errorf("overfit model AIC %v unexpectedly far below true-order AIC %v", m5.AIC, m1.AIC)
	}
}

func TestDiagnoseWhiteResiduals(t *testing.T) {
	// Residuals of the true model are white.
	rng := stats.NewRNG(113)
	xs := genAR(rng, 3000, 0.5, []float64{0.6}, 0.3)
	m, err := fit(xs, Order{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Diagnose(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !d.White {
		t.Errorf("true-model residuals rejected as non-white: %+v", d)
	}
	if d.ResidualSD < 0.25 || d.ResidualSD > 0.35 {
		t.Errorf("residual sd = %v, want ~0.3", d.ResidualSD)
	}
}

func TestDiagnoseDetectsUnderfit(t *testing.T) {
	// A mean-only model on strongly autocorrelated data leaves structure
	// in the residuals; Ljung-Box must reject whiteness.
	rng := stats.NewRNG(114)
	xs := genAR(rng, 3000, 0, []float64{0.8}, 1)
	m, err := fit(xs, Order{P: 0})
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Diagnose(xs)
	if err != nil {
		t.Fatal(err)
	}
	if d.White {
		t.Errorf("underfit model's residuals passed as white: %+v", d)
	}
}

func TestDiagnoseTooShort(t *testing.T) {
	m := &Model{Order: Order{P: 0}}
	if _, err := m.Diagnose(make([]float64, 5)); err == nil {
		t.Error("tiny series should error")
	}
}
