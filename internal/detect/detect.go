// Package detect implements the performance-anomaly detector of §3.2: an
// ARIMA model of normal-state CPI, a residual threshold chosen by one of
// three rules (max-min, 95-percentile, beta-max), and the rule that a
// performance problem is reported only after three consecutive anomalous
// samples, "to make the performance anomaly detection more robust to resist
// system noises".
package detect

import (
	"errors"
	"fmt"
	"math"

	"invarnetx/internal/arima"
	"invarnetx/internal/stats"
)

// Rule selects how the anomaly threshold is derived from the training
// residuals R (§3.2).
type Rule int

const (
	// BetaMax uses beta*max(R); the paper's final choice (beta = 1.2).
	BetaMax Rule = iota
	// MaxMin uses max(R) as the upper bar and min(R) as the lower bar.
	MaxMin
	// P95 uses the 95th percentile of R; the worst performer in Fig. 6.
	P95
)

func (r Rule) String() string {
	switch r {
	case BetaMax:
		return "beta-max"
	case MaxMin:
		return "max-min"
	case P95:
		return "95-percentile"
	default:
		return fmt.Sprintf("rule(%d)", int(r))
	}
}

// Rules lists the three threshold rules, for the Fig. 6 comparison.
func Rules() []Rule { return []Rule{MaxMin, P95, BetaMax} }

// The paper's fixed parameters (§3.2).
const (
	// DefaultBeta is the beta-max fluctuation factor.
	DefaultBeta = 1.2
	// DefaultConsecutive is how many consecutive anomalous samples
	// constitute a reported performance problem.
	DefaultConsecutive = 3
)

// ErrNoTraining is returned when no usable training traces are supplied.
var ErrNoTraining = errors.New("detect: no usable training traces")

// Config parameterises detector training. A zero Config is the paper's
// detector: the beta-max rule over the default ARIMA order search.
type Config struct {
	Rule   Rule
	Select arima.SelectConfig // zero: arima.DefaultSelectConfig()
}

// DefaultConfig returns the paper's configuration, spelled out: the same
// detector a zero Config trains.
func DefaultConfig() Config {
	return Config{Rule: BetaMax, Select: arima.DefaultSelectConfig()}
}

// Detector is a trained CPI anomaly detector for one operation context.
type Detector struct {
	Model *arima.Model
	Rule  Rule
	// Upper is the residual-magnitude threshold; Lower is only used by
	// the max-min rule (an anomaly also fires when |residual| drops below
	// it, which is what gives max-min its extra cost and false alarms).
	Upper       float64
	Lower       float64
	Consecutive int
}

// Train fits an ARIMA model on the normal CPI traces and derives the
// thresholds per cfg: "Each type of workload is repeated for N times...
// we use the trained ARIMA model to fit the CPI data during N runs. The
// absolute value of fitting residual is denoted by R."
func Train(traces [][]float64, cfg Config) (*Detector, error) {
	// Telemetry gaps surface as NaN samples inside CPI traces. The ARIMA
	// recursions propagate a single NaN through every later residual, so a
	// trace is split at its non-finite samples and each finite segment is
	// fitted as an independent trace (CSS treats traces independently
	// anyway). Segments too short to carry lag structure are dropped.
	traces = splitFiniteSegments(traces)
	if len(traces) == 0 {
		return nil, ErrNoTraining
	}
	model, err := arima.FitMulti(traces, cfg.Select)
	if err != nil {
		return nil, fmt.Errorf("detect: %w", err)
	}
	var r []float64
	for _, tr := range traces {
		res, err := model.Residuals(tr)
		if err != nil {
			continue
		}
		r = append(r, stats.Abs(res)...)
	}
	// A non-finite residual would make beta*max(R) (and every other rule)
	// NaN, silencing the detector forever; drop them before thresholding.
	r = stats.DropNonFinite(r)
	if len(r) == 0 {
		return nil, ErrNoTraining
	}
	d := &Detector{Model: model, Rule: cfg.Rule, Consecutive: DefaultConsecutive}
	switch cfg.Rule {
	case MaxMin:
		d.Upper, _ = stats.Max(r)
		d.Lower, _ = stats.Min(r)
	case P95:
		d.Upper, _ = stats.Percentile(r, 95)
	case BetaMax:
		mx, _ := stats.Max(r)
		d.Upper = DefaultBeta * mx
	default:
		return nil, fmt.Errorf("detect: unknown rule %v", cfg.Rule)
	}
	return d, nil
}

// minSegment is the shortest finite CPI segment worth fitting: enough
// samples to expose lag structure to the order search.
const minSegment = 8

// splitFiniteSegments breaks every trace at its NaN/±Inf samples and
// returns the finite segments of usable length. Fully finite traces pass
// through unchanged.
func splitFiniteSegments(traces [][]float64) [][]float64 {
	var out [][]float64
	for _, tr := range traces {
		if stats.AllFinite(tr) {
			if len(tr) > 0 {
				out = append(out, tr)
			}
			continue
		}
		start := -1
		for i := 0; i <= len(tr); i++ {
			finite := i < len(tr) && !math.IsNaN(tr[i]) && !math.IsInf(tr[i], 0)
			if finite && start < 0 {
				start = i
			}
			if !finite && start >= 0 {
				if i-start >= minSegment {
					out = append(out, tr[start:i])
				}
				start = -1
			}
		}
	}
	return out
}

// Anomalous classifies a single residual magnitude under the rule.
func (d *Detector) Anomalous(residual float64) bool {
	switch d.Rule {
	case MaxMin:
		return residual > d.Upper || residual < d.Lower
	default:
		return residual > d.Upper
	}
}

// ResidualSeries returns |one-step residuals| of the model over a full CPI
// trace (for Fig. 5-style plots). The first max(p,q) samples are skipped.
func (d *Detector) ResidualSeries(trace []float64) ([]float64, error) {
	res, err := d.Model.Residuals(trace)
	if err != nil {
		return nil, err
	}
	return stats.Abs(res), nil
}

// Monitor is the online detection state for one running job: feed CPI
// samples as they arrive; Alert fires after Consecutive anomalous samples
// in a row.
//
// The monitor streams: prediction state lives in an arima.Forecaster whose
// forecasts are bit-identical to PredictNext over the accumulated history,
// so each Offer costs O(model lag) time and the monitor's memory does not
// grow with the stream. A caller that wants the per-sample decisions (Fig.
// 6) tallies what Offer returns.
type Monitor struct {
	d       *Detector
	fc      *arima.Forecaster
	run     int
	alerted bool
	// DisableLog does nothing: the monitor keeps no per-sample log. It stays
	// declared only because bench/layers.go l. 382 still sets it and bench/
	// changes in benchmark-only PRs. Delete it with that setter.
	DisableLog bool
	// consecGaps is the current run of missing (NaN/±Inf) samples.
	consecGaps int
}

// NewMonitor starts a monitor seeded with the warm-up CPI history (at least
// the model's lag depth; typically the first samples of the run). Non-finite
// warm-up samples — telemetry gaps — are excluded from the seed history so
// they cannot poison the first forecasts.
func (d *Detector) NewMonitor(warmup []float64) *Monitor {
	m := &Monitor{d: d, fc: d.Model.NewForecaster()}
	for _, v := range warmup {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			m.fc.Observe(v)
		}
	}
	return m
}

// Offer feeds one CPI sample and returns whether this sample is anomalous.
// Samples too early to predict are treated as normal.
//
// A NaN/±Inf sample is a telemetry gap, not an observation: it is excluded
// from the prediction history (a NaN would poison every later forecast) and
// is neither anomalous nor normal, so it leaves the consecutive-anomaly
// counter untouched. Only when the outage itself reaches Consecutive
// missing samples is the counter cleared — at that point the detector can
// no longer claim that anomalies straddling the outage were consecutive.
func (m *Monitor) Offer(sample float64) bool {
	if math.IsNaN(sample) || math.IsInf(sample, 0) {
		m.consecGaps++
		if m.consecGaps >= m.d.Consecutive {
			m.run = 0
		}
		return false
	}
	m.consecGaps = 0
	pred, err := m.fc.PredictNext()
	m.fc.Observe(sample)
	res := sample - pred
	if res < 0 {
		res = -res
	}
	anom := err == nil && m.d.Anomalous(res)
	if anom {
		m.run++
		if m.run >= m.d.Consecutive {
			m.alerted = true
		}
	} else {
		m.run = 0
	}
	return anom
}

// Alert reports whether the consecutive-anomaly rule has fired.
func (m *Monitor) Alert() bool { return m.alerted }

// Reset clears the alert state but keeps the history (diagnosis resolved,
// monitoring continues).
func (m *Monitor) Reset() {
	m.alerted = false
	m.run = 0
}
