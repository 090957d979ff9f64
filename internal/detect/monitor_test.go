package detect

import (
	"testing"
)

// These tests cover the online monitor's edge behaviour beyond the happy
// paths in detect_test.go.

func trainedDetector(t *testing.T, seed int64) *Detector {
	t.Helper()
	d, err := Train(normalTraces(seed, 8, 120), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestMonitorEmptyWarmup(t *testing.T) {
	d := trainedDetector(t, 520)
	m := d.NewMonitor(nil)
	// Samples arriving before the model has enough history are treated as
	// normal, never panic.
	for i := 0; i < 10; i++ {
		if m.Offer(1.0) {
			t.Errorf("sample %d flagged with no meaningful history", i)
		}
	}
	if m.Alert() {
		t.Error("alert with no meaningful history")
	}
}

func TestMonitorAnomalyLogMatchesOffers(t *testing.T) {
	d := trainedDetector(t, 521)
	warm := normalTraces(522, 1, 20)[0]
	m := d.NewMonitor(warm)
	seq := []float64{1.0, 1.0, 5.0, 1.0, 5.0, 5.0, 5.0}
	anom := make([]bool, len(seq))
	for i, v := range seq {
		anom[i] = m.Offer(v)
	}
	if anom[0] || anom[1] {
		t.Error("normal samples flagged")
	}
	if !anom[2] {
		t.Error("5.0 spike not flagged")
	}
}

func TestMonitorAlertRequiresExactlyConsecutive(t *testing.T) {
	// A mean-only model makes the anomaly decisions memoryless, so the
	// consecutive counting is exactly observable.
	cfg := DefaultConfig()
	cfg.Select.MaxP, cfg.Select.MaxQ = -1, -1
	d, err := Train(normalTraces(523, 8, 120), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Consecutive = 4
	if d.Model.Order.P != 0 || d.Model.Order.Q != 0 {
		t.Fatalf("expected mean-only model, got %v", d.Model.Order)
	}
	warm := normalTraces(524, 1, 20)[0]
	m := d.NewMonitor(warm)
	// Three anomalies then a normal sample: run of 3 < 4, no alert.
	m.Offer(5.0)
	m.Offer(5.0)
	m.Offer(5.0)
	m.Offer(1.0)
	if m.Alert() {
		t.Error("alert after a 3-run with Consecutive=4")
	}
	// Four in a row: alert.
	for i := 0; i < 4; i++ {
		m.Offer(5.0)
	}
	if !m.Alert() {
		t.Error("no alert after 4 consecutive anomalies")
	}
}

func TestMonitorAlertLatchesUntilReset(t *testing.T) {
	d := trainedDetector(t, 525)
	warm := normalTraces(526, 1, 20)[0]
	m := d.NewMonitor(warm)
	for i := 0; i < 5; i++ {
		m.Offer(5.0)
	}
	if !m.Alert() {
		t.Fatal("no alert")
	}
	// Back to normal: the alert stays latched (the operator clears it).
	for i := 0; i < 5; i++ {
		m.Offer(1.0)
	}
	if !m.Alert() {
		t.Error("alert dropped without Reset")
	}
	m.Reset()
	if m.Alert() {
		t.Error("Reset did not clear")
	}
	// And it can fire again.
	for i := 0; i < 5; i++ {
		m.Offer(5.0)
	}
	if !m.Alert() {
		t.Error("no re-alert after Reset")
	}
}

// TestDetectorResidualAgainstKnownValue: the online step's residual is
// |observed − predicted| — a sample just past Upper on either side of the
// forecast is anomalous, one just inside is not.
func TestDetectorResidualAgainstKnownValue(t *testing.T) {
	d := trainedDetector(t, 527)
	hist := normalTraces(528, 1, 40)[0]
	fc := d.Model.NewForecaster()
	for _, x := range hist {
		fc.Observe(x)
	}
	pred, err := fc.PredictNext()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		offset float64
		want   bool
	}{
		{d.Upper + 1e-6, true},
		{-(d.Upper + 1e-6), true},
		{d.Upper - 1e-6, false},
		{-(d.Upper - 1e-6), false},
	} {
		if got := d.NewMonitor(hist).Offer(pred + tc.offset); got != tc.want {
			t.Errorf("offer forecast%+g (Upper %g): anomalous = %v, want %v", tc.offset, d.Upper, got, tc.want)
		}
	}
}

func TestTrainWithPartiallyUnusableTraces(t *testing.T) {
	// Traces too short to score residuals are skipped, not fatal.
	traces := normalTraces(529, 6, 100)
	traces = append(traces, []float64{1.0})
	d, err := Train(traces, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Upper <= 0 {
		t.Errorf("Upper = %v", d.Upper)
	}
}

func TestDetectorDiagnosticsIntegration(t *testing.T) {
	// The trained CPI model's residuals on a fresh normal trace should be
	// white per the Ljung-Box diagnostics exposed via the arima layer.
	d := trainedDetector(t, 530)
	fresh := normalTraces(531, 1, 200)[0]
	diag, err := d.Model.Diagnose(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.White {
		t.Errorf("normal-trace residuals rejected as non-white: %+v", diag)
	}
}
