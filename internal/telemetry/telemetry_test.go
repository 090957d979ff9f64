package telemetry

import (
	"math"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/stats"
)

func vec(v float64) []float64 {
	s := make([]float64, metrics.Count)
	for i := range s {
		s[i] = v
	}
	return s
}

func TestTransparentCollector(t *testing.T) {
	c := New(Config{}, stats.NewRNG(1))
	tr := metrics.NewTrace("10.0.0.2", "wordcount")
	for i := 0; i < 5; i++ {
		live, err := c.Ingest("10.0.0.2", vec(float64(i)), 1.0, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !live.CPIValid || live.CPI != 1.0 {
			t.Fatalf("tick %d: live CPI %v/%v", i, live.CPI, live.CPIValid)
		}
		for m := 0; m < metrics.Count; m++ {
			if !live.Valid[m] || live.Values[m] != float64(i) {
				t.Fatalf("tick %d metric %d: %v/%v", i, m, live.Values[m], live.Valid[m])
			}
		}
	}
	if f := tr.ValidFraction(); f != 1 {
		t.Fatalf("ValidFraction = %v, want 1", f)
	}
	h := c.Health("10.0.0.2")
	if h.Status != Healthy || h.Batches != 5 || h.Dropped != 0 {
		t.Fatalf("health = %+v", h)
	}
}

func TestTotalLossMaskPolicy(t *testing.T) {
	cfg := Config{Faults: FaultModel{DropRate: 1}, Policy: Mask}
	c := New(cfg, stats.NewRNG(2))
	tr := metrics.NewTrace("n", "w")
	for i := 0; i < 4; i++ {
		live, err := c.Ingest("n", vec(7), 1.0, tr)
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < metrics.Count; m++ {
			if live.Valid[m] || !math.IsNaN(live.Values[m]) {
				t.Fatalf("total loss produced a valid reading: %v", live.Values[m])
			}
		}
	}
	h := c.Health("n")
	if h.Status != Degraded {
		t.Fatalf("status = %v, want degraded", h.Status)
	}
	if h.Dropped == 0 || h.Retries == 0 || h.RetryLatencyMS <= 0 {
		t.Fatalf("retry accounting missing: %+v", h)
	}
	if h.Recovered != 0 {
		t.Fatalf("recovered %d readings at DropRate 1", h.Recovered)
	}
}

func TestRetryRecoversSomeDrops(t *testing.T) {
	cfg := Config{Faults: FaultModel{DropRate: 0.4}, Policy: Mask}
	c := New(cfg, stats.NewRNG(3))
	tr := metrics.NewTrace("n", "w")
	for i := 0; i < 40; i++ {
		if _, err := c.Ingest("n", vec(1), 1.0, tr); err != nil {
			t.Fatal(err)
		}
	}
	h := c.Health("n")
	if h.Dropped == 0 {
		t.Fatal("no drops at DropRate 0.4")
	}
	if h.Recovered == 0 {
		t.Fatalf("retry loop recovered nothing at DropRate 0.4 with %d attempts", retryMax)
	}
	if lost := h.Dropped + h.Corrupt; h.Retries < lost || h.Retries > retryMax*lost {
		t.Fatalf("%d retries for %d lost readings, want 1 to %d each", h.Retries, lost, retryMax)
	}
	if h.Recovered > h.Dropped+h.Corrupt {
		t.Fatalf("recovered %d > lost %d", h.Recovered, h.Dropped+h.Corrupt)
	}
	// Recovery must beat the no-retry loss rate: valid fraction well
	// above 1-0.4.
	if f := tr.ValidFraction(); f < 0.65 {
		t.Fatalf("ValidFraction = %v; retries seem ineffective", f)
	}
}

func TestOutageHoldLastAndHealthDown(t *testing.T) {
	cfg := Config{
		Faults: FaultModel{Outages: map[string][]Window{"n": {{Start: 2, End: 5}}}},
		Policy: HoldLast,
	}
	c := New(cfg, stats.NewRNG(4))
	tr := metrics.NewTrace("n", "w")
	down := false
	for i := 0; i < 8; i++ {
		if _, err := c.Ingest("n", vec(float64(i)), float64(i), tr); err != nil {
			t.Fatal(err)
		}
		if i >= 3 && i < 5 && c.Health("n").Status == Down {
			down = true
		}
	}
	if !down {
		t.Fatal("node never reported Down during a 3-tick outage")
	}
	// Outage ticks hold the last genuine reading (tick 1), masked invalid.
	for _, tick := range []int{2, 3, 4} {
		if tr.Valid[0][tick] {
			t.Fatalf("outage tick %d marked valid", tick)
		}
		if tr.Rows[0][tick] != 1 {
			t.Fatalf("hold-last at tick %d = %v, want 1", tick, tr.Rows[0][tick])
		}
		if tr.CPI[tick] != 1 {
			t.Fatalf("hold-last CPI at tick %d = %v, want 1", tick, tr.CPI[tick])
		}
	}
	if !tr.Valid[0][5] || tr.Rows[0][5] != 5 {
		t.Fatal("first tick after outage not genuine")
	}
	h := c.Health("n")
	if h.OutageTicks != 3 {
		t.Fatalf("OutageTicks = %d, want 3", h.OutageTicks)
	}
	if h.Status == Down {
		t.Fatal("node still Down after recovery ticks")
	}
}

func TestInterpolatePolicy(t *testing.T) {
	cfg := Config{
		Faults: FaultModel{Outages: map[string][]Window{"n": {{Start: 2, End: 4}}}},
		Policy: Interpolate,
	}
	c := New(cfg, stats.NewRNG(5))
	tr := metrics.NewTrace("n", "w")
	for i := 0; i < 6; i++ {
		if _, err := c.Ingest("n", vec(float64(i)*10), float64(i), tr); err != nil {
			t.Fatal(err)
		}
	}
	// Gap ticks 2,3 between genuine 10 (tick 1) and 40 (tick 4):
	// linear fill 20, 30.
	if math.Abs(tr.Rows[0][2]-20) > 1e-9 || math.Abs(tr.Rows[0][3]-30) > 1e-9 {
		t.Fatalf("interpolated values %v, %v, want 20, 30", tr.Rows[0][2], tr.Rows[0][3])
	}
	if tr.Valid[0][2] || tr.Valid[0][3] {
		t.Fatal("interpolated samples marked genuine")
	}
	if math.Abs(tr.CPI[2]-2) > 1e-9 || math.Abs(tr.CPI[3]-3) > 1e-9 {
		t.Fatalf("interpolated CPI %v, %v, want 2, 3", tr.CPI[2], tr.CPI[3])
	}
}

func TestLateBatchesPatchTrace(t *testing.T) {
	cfg := Config{
		Faults: FaultModel{BatchDelayRate: 1, MaxDelayTicks: 1},
		Policy: Mask,
	}
	c := New(cfg, stats.NewRNG(6))
	tr := metrics.NewTrace("n", "w")
	for i := 0; i < 5; i++ {
		live, err := c.Ingest("n", vec(float64(i)), float64(i), tr)
		if err != nil {
			t.Fatal(err)
		}
		// Every batch is late: the live view at its own tick is a gap.
		if live.CPIValid {
			t.Fatalf("tick %d: delayed batch visible live", i)
		}
	}
	c.Flush("n", tr)
	// After flushing, every tick's genuine data arrived retroactively.
	for i := 0; i < 5; i++ {
		if !tr.Valid[0][i] || tr.Rows[0][i] != float64(i) {
			t.Fatalf("tick %d not patched: %v/%v", i, tr.Rows[0][i], tr.Valid[0][i])
		}
		if !tr.CPIValid[i] || tr.CPI[i] != float64(i) {
			t.Fatalf("tick %d CPI not patched", i)
		}
	}
	if h := c.Health("n"); h.Late != 5 {
		t.Fatalf("Late = %d, want 5", h.Late)
	}
}

func TestCorruptSpikeSlipsThrough(t *testing.T) {
	cfg := Config{Faults: FaultModel{CorruptRate: 1, SpikeFraction: 1}, Policy: Mask}
	c := New(cfg, stats.NewRNG(7))
	tr := metrics.NewTrace("n", "w")
	live, err := c.Ingest("n", vec(2), 1, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Every reading is a finite spike that passed validation.
	for m := 0; m < metrics.Count; m++ {
		if !live.Valid[m] {
			t.Fatal("spike should pass validation")
		}
		if math.IsNaN(live.Values[m]) || live.Values[m] < 1e6 {
			t.Fatalf("spike value %v", live.Values[m])
		}
	}
	if h := c.Health("n"); h.Corrupt == 0 {
		t.Fatal("corruption not accounted")
	}
}

func TestDegradeReplaysTrace(t *testing.T) {
	clean := metrics.NewTrace("10.0.0.2", "wordcount")
	for i := 0; i < 40; i++ {
		if err := clean.Add(vec(float64(i)), 1+0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Faults: FaultModel{DropRate: 0.2}, Policy: Mask}
	c := New(cfg, stats.NewRNG(8))
	deg, liveCPI, err := c.Degrade(clean)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Len() != clean.Len() || len(liveCPI) != clean.Len() {
		t.Fatalf("degraded lengths %d/%d, want %d", deg.Len(), len(liveCPI), clean.Len())
	}
	f := deg.ValidFraction()
	if f >= 1 || f < 0.5 {
		t.Fatalf("ValidFraction = %v under 20%% loss with retries", f)
	}
	// Genuine samples are unchanged; masked ones are NaN.
	for m := 0; m < metrics.Count; m++ {
		for tt := 0; tt < deg.Len(); tt++ {
			if deg.Valid[m][tt] {
				if deg.Rows[m][tt] != clean.Rows[m][tt] {
					t.Fatalf("genuine sample altered at %d/%d", m, tt)
				}
			} else if !math.IsNaN(deg.Rows[m][tt]) {
				t.Fatalf("masked sample not NaN at %d/%d", m, tt)
			}
		}
	}
}

func TestParseFaultSpec(t *testing.T) {
	cfg, err := ParseFaultSpec("drop=0.2, corrupt=0.05,spike=0.25,delay=0.1,maxdelay=4,outage=10.0.0.3:10-40,outage=10.0.0.4,policy=hold")
	if err != nil {
		t.Fatal(err)
	}
	f := cfg.Faults
	if f.DropRate != 0.2 || f.CorruptRate != 0.05 || f.SpikeFraction != 0.25 || f.BatchDelayRate != 0.1 || f.MaxDelayTicks != 4 {
		t.Fatalf("parsed faults %+v", f)
	}
	if len(f.Outages["10.0.0.3"]) != 1 || f.Outages["10.0.0.3"][0] != (Window{10, 40}) {
		t.Fatalf("outage windows %+v", f.Outages)
	}
	if len(f.Outages["10.0.0.4"]) != 1 || !f.Outages["10.0.0.4"][0].Contains(999999) {
		t.Fatal("bare outage should cover the whole run")
	}
	if cfg.Policy != HoldLast {
		t.Fatalf("policy %v", cfg.Policy)
	}
	c2, err := ParseFaultSpec("")
	if f := c2.Faults; err != nil || f.DropRate > 0 || f.CorruptRate > 0 || f.BatchDelayRate > 0 || len(f.Outages) > 0 {
		t.Fatalf("empty spec injects faults: %+v, %v", c2, err)
	}
	for _, bad := range []string{"drop=2", "nope=1", "outage=:3-4", "outage=n:9-3", "policy=zigzag", "drop"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestIngestValidatesAlignment(t *testing.T) {
	c := New(Config{}, stats.NewRNG(9))
	tr := metrics.NewTrace("n", "w")
	if _, err := c.Ingest("n", []float64{1, 2}, 1, tr); err == nil {
		t.Fatal("short sample accepted")
	}
	c.Ingest("n", vec(1), 1, tr)
	other := metrics.NewTrace("n", "w")
	if _, err := c.Ingest("n", vec(2), 1, other); err == nil {
		t.Fatal("trace/tick misalignment accepted")
	}
}
