package detect

import (
	"testing"

	"invarnetx/internal/stats"
)

// normalTraces builds N CPI-like traces: AR(1) around a base level.
func normalTraces(seed int64, n, length int) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, n)
	for i := range out {
		r := rng.Fork(int64(i))
		tr := make([]float64, length)
		tr[0] = 1.0
		for t := 1; t < length; t++ {
			tr[t] = 1.0 + 0.6*(tr[t-1]-1.0) + r.Normal(0, 0.02)
		}
		out[i] = tr
	}
	return out
}

func TestTrainAllRules(t *testing.T) {
	traces := normalTraces(500, 10, 120)
	for _, rule := range Rules() {
		cfg := DefaultConfig()
		cfg.Rule = rule
		d, err := Train(traces, cfg)
		if err != nil {
			t.Fatalf("%v: %v", rule, err)
		}
		if d.Upper <= 0 {
			t.Errorf("%v: Upper = %v", rule, d.Upper)
		}
		if rule == MaxMin && d.Lower < 0 {
			t.Errorf("max-min Lower = %v", d.Lower)
		}
	}
}

// TestTrainZeroConfigIsDefault: a zero Config trains the detector
// DefaultConfig trains — the d = 0 order search included, so CPI traces with
// a slow ramp (which a search allowed to difference fits with d >= 1) keep a
// level-anchored model.
func TestTrainZeroConfigIsDefault(t *testing.T) {
	rng := stats.NewRNG(7)
	traces := make([][]float64, 6)
	for i := range traces {
		for tick := 0; tick < 100; tick++ {
			traces[i] = append(traces[i], 1+0.005*float64(tick)+rng.Normal(0, 0.02))
		}
	}
	zero, err := Train(traces, Config{})
	if err != nil {
		t.Fatal(err)
	}
	def, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if zero.Model.Order != def.Model.Order || zero.Model.Order.D != 0 || zero.Upper != def.Upper {
		t.Errorf("zero config trained %v (upper %v), DefaultConfig %v (upper %v)",
			zero.Model.Order, zero.Upper, def.Model.Order, def.Upper)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, DefaultConfig()); err == nil {
		t.Error("no traces should error")
	}
	cfg := DefaultConfig()
	cfg.Rule = Rule(42)
	if _, err := Train(normalTraces(1, 3, 60), cfg); err == nil {
		t.Error("unknown rule should error")
	}
}

func TestThresholdOrdering(t *testing.T) {
	// By construction: P95 threshold <= max(R) <= beta*max(R).
	traces := normalTraces(501, 10, 120)
	mk := func(rule Rule) *Detector {
		cfg := DefaultConfig()
		cfg.Rule = rule
		d, err := Train(traces, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	p95 := mk(P95)
	mm := mk(MaxMin)
	bm := mk(BetaMax)
	if !(p95.Upper <= mm.Upper && mm.Upper <= bm.Upper) {
		t.Errorf("thresholds not ordered: p95=%v maxmin=%v betamax=%v", p95.Upper, mm.Upper, bm.Upper)
	}
}

func TestNormalDataRarelyFlags(t *testing.T) {
	traces := normalTraces(502, 10, 120)
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A fresh normal trace: beta-max should flag (almost) nothing.
	fresh := normalTraces(777, 1, 200)[0]
	m := d.NewMonitor(fresh[:10])
	flags := 0
	for _, v := range fresh[10:] {
		if m.Offer(v) {
			flags++
		}
	}
	if rate := float64(flags) / float64(len(fresh)-10); rate > 0.02 {
		t.Errorf("false-positive rate on normal data = %v", rate)
	}
	if m.Alert() {
		t.Error("alert fired on normal data")
	}
}

func TestAnomalyDetectedOnLevelShift(t *testing.T) {
	traces := normalTraces(503, 10, 120)
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Normal prefix then a CPU-hog-like CPI level shift.
	rng := stats.NewRNG(504)
	trace := make([]float64, 80)
	trace[0] = 1
	for t1 := 1; t1 < len(trace); t1++ {
		base := 1.0
		if t1 >= 40 {
			base = 1.8
		}
		trace[t1] = base + 0.6*(trace[t1-1]-base) + rng.Normal(0, 0.02)
	}
	m := d.NewMonitor(trace[:10])
	alertAt := -1
	for i, v := range trace[10:] {
		m.Offer(v)
		if m.Alert() && alertAt < 0 {
			alertAt = i + 10
		}
	}
	if alertAt < 0 {
		t.Fatal("no alert on level shift")
	}
	if alertAt < 40 {
		t.Errorf("alert at %d, before the shift at 40", alertAt)
	}
	if alertAt > 50 {
		t.Errorf("alert at %d, too long after the shift at 40", alertAt)
	}
}

func TestConsecutiveRuleSuppressesSpikes(t *testing.T) {
	traces := normalTraces(505, 10, 120)
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(506)
	trace := make([]float64, 60)
	trace[0] = 1
	for t1 := 1; t1 < len(trace); t1++ {
		trace[t1] = 1 + 0.6*(trace[t1-1]-1) + rng.Normal(0, 0.02)
	}
	// One isolated spike: single anomalous sample, no alert.
	m := d.NewMonitor(trace[:10])
	for i, v := range trace[10:] {
		if i == 20 {
			v += 2.0
		}
		m.Offer(v)
	}
	if m.Alert() {
		t.Error("single spike should not alert under the 3-consecutive rule")
	}
}

func TestMonitorReset(t *testing.T) {
	traces := normalTraces(507, 8, 100)
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := d.NewMonitor(normalTraces(508, 1, 20)[0])
	for i := 0; i < 5; i++ {
		m.Offer(5.0) // wildly anomalous
	}
	if !m.Alert() {
		t.Fatal("no alert on sustained anomaly")
	}
	m.Reset()
	if m.Alert() {
		t.Error("Reset did not clear alert")
	}
}

func TestResidualSeries(t *testing.T) {
	traces := normalTraces(509, 8, 100)
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := d.ResidualSeries(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r < 0 {
			t.Fatal("residual series must be absolute values")
		}
	}
	if len(rs) >= len(traces[0]) {
		t.Error("residual series should skip unpredictable prefix")
	}
}

func TestMaxMinLowerBarFires(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rule = MaxMin
	traces := normalTraces(510, 10, 120)
	d, err := Train(traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Lower <= 0 {
		t.Skip("degenerate lower bar")
	}
	// A residual below the lower bar is anomalous under max-min only.
	r := d.Lower / 2
	if !d.Anomalous(r) {
		t.Error("max-min should flag residuals below the lower bar")
	}
	d2, _ := Train(traces, DefaultConfig())
	if d2.Anomalous(r) {
		t.Error("beta-max should not flag tiny residuals")
	}
}

func TestRuleString(t *testing.T) {
	for _, r := range Rules() {
		if r.String() == "" {
			t.Error("empty rule name")
		}
	}
	if BetaMax.String() != "beta-max" {
		t.Errorf("BetaMax = %q", BetaMax.String())
	}
}
