package detect

import (
	"math"
	"testing"

	"invarnetx/internal/arima"
)

// flatDetector predicts a constant 1.0 (ARIMA(0,0,0) with intercept 1), so a
// sample's residual is simply |sample-1|. Upper=0.5 makes samples outside
// [0.5, 1.5] anomalous.
func flatDetector() *Detector {
	return &Detector{
		Model:       &arima.Model{Intercept: 1},
		Rule:        BetaMax,
		Upper:       0.5,
		Consecutive: 3,
	}
}

func TestTrainDropsNonFiniteResiduals(t *testing.T) {
	// One clean trace plus one trace with NaN gaps; training must produce a
	// finite threshold instead of beta*NaN.
	clean := make([]float64, 40)
	holey := make([]float64, 40)
	for i := range clean {
		v := 1 + 0.01*math.Sin(float64(i))
		clean[i] = v
		holey[i] = v
	}
	holey[5] = math.NaN()
	holey[25] = math.Inf(1)
	d, err := Train([][]float64{clean, holey}, DefaultConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if math.IsNaN(d.Upper) || math.IsInf(d.Upper, 0) || d.Upper <= 0 {
		t.Fatalf("threshold %v not finite positive", d.Upper)
	}
}

func TestTrainAllNonFinite(t *testing.T) {
	bad := make([]float64, 20)
	for i := range bad {
		bad[i] = math.NaN()
	}
	if _, err := Train([][]float64{bad}, DefaultConfig()); err == nil {
		t.Fatal("Train on all-NaN trace should fail, not produce a NaN model")
	}
}

func TestSplitFiniteSegments(t *testing.T) {
	tr := make([]float64, 30)
	for i := range tr {
		tr[i] = 1
	}
	tr[10] = math.NaN() // segments: [0,10) len 10, [11,30) len 19
	segs := splitFiniteSegments([][]float64{tr})
	if len(segs) != 2 || len(segs[0]) != 10 || len(segs[1]) != 19 {
		t.Fatalf("segments = %d lens %v", len(segs), segs)
	}
	// Short fragments (< minSegment) are dropped.
	short := []float64{1, 2, math.NaN(), 3, 4}
	if segs := splitFiniteSegments([][]float64{short}); len(segs) != 0 {
		t.Fatalf("short fragments kept: %v", segs)
	}
}

func TestMonitorGapPreservesRun(t *testing.T) {
	d := flatDetector()
	m := d.NewMonitor([]float64{1})
	// Two anomalies, one gap, one anomaly: the gap must neither reset nor
	// extend the consecutive count, so the third anomaly fires the alert.
	m.Offer(3)
	m.Offer(3)
	if m.Alert() {
		t.Fatal("alert after 2 anomalies")
	}
	m.Offer(math.NaN())
	if m.Alert() {
		t.Fatal("gap counted as anomaly")
	}
	m.Offer(3)
	if !m.Alert() {
		t.Fatal("single gap broke the consecutive-anomaly counter")
	}
}

func TestMonitorLongOutageResetsRun(t *testing.T) {
	d := flatDetector()
	m := d.NewMonitor([]float64{1})
	m.Offer(3)
	m.Offer(3)
	// An outage as long as the consecutive threshold clears the counter.
	m.Offer(math.NaN())
	m.Offer(math.Inf(1))
	m.Offer(math.NaN())
	m.Offer(3)
	if m.Alert() {
		t.Fatal("anomalies straddling a long outage treated as consecutive")
	}
	m.Offer(3)
	m.Offer(3)
	if !m.Alert() {
		t.Fatal("fresh consecutive anomalies after outage did not alert")
	}
}

func TestMonitorGapDoesNotPoisonHistory(t *testing.T) {
	d := flatDetector()
	m := d.NewMonitor([]float64{1})
	m.Offer(math.NaN())
	// After a gap, a normal sample must still produce a finite residual
	// decision (NaN in history would make every later residual NaN).
	if m.Offer(1.1) {
		t.Fatal("normal sample after gap flagged anomalous")
	}
	m.Offer(3)
	m.Offer(3)
	m.Offer(3)
	if !m.Alert() {
		t.Fatal("detector dead after gap: history was poisoned")
	}
}
