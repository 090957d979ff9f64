package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/server"
	"invarnetx/internal/stats"
)

// constTrace is an n-tick trace on node ip whose every metric and CPI reads v.
func constTrace(ip string, n int, v float64) *metrics.Trace {
	tr := metrics.NewTrace(ip, "wordcount")
	row := make([]float64, metrics.Count)
	for i := range row {
		row[i] = v
	}
	for t := 0; t < n; t++ {
		if err := tr.Add(row, v); err != nil {
			panic(err)
		}
	}
	return tr
}

// ingest sends tr through f and the daemon's ingest path.
func ingest(t *testing.T, f FaultModel, tr *metrics.Trace, rng *stats.RNG) *metrics.Trace {
	t.Helper()
	deg, err := server.TraceFromSamples(tr.Context, tr.NodeIP, f.Samples(tr, rng))
	if err != nil {
		t.Fatal(err)
	}
	return deg
}

func TestTransparentFaultModel(t *testing.T) {
	clean := constTrace("10.0.0.2", 5, 3)
	samples := (&FaultModel{}).Samples(clean, stats.NewRNG(1))
	if len(samples) != 5 {
		t.Fatalf("%d samples for 5 ticks", len(samples))
	}
	for i, s := range samples {
		if !*s.CPIValid || s.CPI != 3 {
			t.Fatalf("tick %d: CPI %v/%v", i, s.CPI, *s.CPIValid)
		}
		for m := 0; m < metrics.Count; m++ {
			if !s.Valid[m] || s.Metrics[m] != 3 {
				t.Fatalf("tick %d metric %d: %v/%v", i, m, s.Metrics[m], s.Valid[m])
			}
		}
	}
	// Nothing lost, so the daemon builds the clean (unmasked) trace.
	if deg := ingest(t, FaultModel{}, clean, stats.NewRNG(1)); deg.Valid != nil || deg.ValidFraction() != 1 {
		t.Fatalf("transparent model produced a masked trace (ValidFraction %v)", deg.ValidFraction())
	}
}

func TestTotalLossMaskPolicy(t *testing.T) {
	clean := constTrace("n", 4, 7)
	f := FaultModel{DropRate: 1}
	for i, s := range f.Samples(clean, stats.NewRNG(2)) {
		for m := 0; m < metrics.Count; m++ {
			if s.Valid[m] || s.Metrics[m] != 0 {
				t.Fatalf("tick %d metric %d: sent %v/%v, want placeholder 0 flagged invalid", i, m, s.Metrics[m], s.Valid[m])
			}
		}
		if *s.CPIValid || s.CPI != 0 {
			t.Fatalf("tick %d: CPI sent %v/%v at DropRate 1", i, s.CPI, *s.CPIValid)
		}
	}
	deg := ingest(t, f, clean, stats.NewRNG(2))
	if deg.ValidFraction() != 0 {
		t.Fatalf("ValidFraction = %v, want 0", deg.ValidFraction())
	}
	for m := range deg.Rows {
		for i, v := range deg.Rows[m] {
			if !math.IsNaN(v) {
				t.Fatalf("lost entry %d/%d ingested as %v, want NaN", m, i, v)
			}
		}
	}
}

func TestRetryRecoversSomeDrops(t *testing.T) {
	deg := ingest(t, FaultModel{DropRate: 0.4}, constTrace("n", 40, 1), stats.NewRNG(3))
	// Two retries leave 0.4³ ≈ 6 % of readings lost: well above the
	// no-retry survival rate of 60 %, but not all of them.
	if f := deg.ValidFraction(); f >= 1 || f < 0.85 {
		t.Fatalf("ValidFraction = %v at DropRate 0.4 with %d retries", f, retryMax)
	}
}

// TestOutageMasksEveryTick: every outage tick goes out invalid, metrics and
// CPI alike, the ticks around it are genuine, and the outage draws nothing —
// the ticks after it see the draws a run without the outage saw from its
// start.
func TestOutageMasksEveryTick(t *testing.T) {
	clean := constTrace("n", 12, 5)
	out := FaultModel{Outages: map[string][]faults.Window{"n": {{Start: 2, End: 5}}}}
	deg := ingest(t, out, clean, stats.NewRNG(4))
	for tick := 0; tick < clean.Len(); tick++ {
		outage := tick >= 2 && tick < 5
		for m := range deg.Rows {
			if deg.Valid[m][tick] == outage {
				t.Fatalf("tick %d metric %d valid=%v, outage=%v", tick, m, deg.Valid[m][tick], outage)
			}
		}
		if deg.CPIValid[tick] == outage {
			t.Fatalf("tick %d CPI valid=%v, outage=%v", tick, deg.CPIValid[tick], outage)
		}
	}

	lossy := FaultModel{DropRate: 0.7, Outages: out.Outages}
	plain := FaultModel{DropRate: 0.7}
	a := lossy.Samples(clean, stats.NewRNG(5))
	b := plain.Samples(clean, stats.NewRNG(5))
	for i := 0; i < 7; i++ {
		j := i + 3 // the outage skipped three ticks' worth of draws
		if i < 2 {
			j = i
		}
		for m := 0; m < metrics.Count; m++ {
			if a[j].Valid[m] != b[i].Valid[m] {
				t.Fatalf("outage run tick %d metric %d diverged from plain run tick %d", j, m, i)
			}
		}
		if *a[j].CPIValid != *b[i].CPIValid {
			t.Fatalf("outage run tick %d CPI diverged from plain run tick %d", j, i)
		}
	}
}

func TestCorruptSpikeSlipsThrough(t *testing.T) {
	deg := ingest(t, FaultModel{CorruptRate: 1, SpikeFraction: 1}, constTrace("n", 1, 2), stats.NewRNG(7))
	// Every reading is a finite spike that passed validation.
	if deg.Valid != nil {
		t.Fatal("spike should pass validation")
	}
	for m := 0; m < metrics.Count; m++ {
		if v := deg.Rows[m][0]; v != 3e6 {
			t.Fatalf("spike value %v, want (1+|2|)·1e6", v)
		}
	}
}

func TestDegradeReplaysTrace(t *testing.T) {
	clean := metrics.NewTrace("10.0.0.2", "wordcount")
	row := make([]float64, metrics.Count)
	for i := 0; i < 40; i++ {
		for m := range row {
			row[m] = float64(i)
		}
		if err := clean.Add(row, 1+0.01*float64(i%5)); err != nil {
			t.Fatal(err)
		}
	}
	deg := ingest(t, FaultModel{DropRate: 0.2}, clean, stats.NewRNG(8))
	if deg.Len() != clean.Len() {
		t.Fatalf("degraded length %d, want %d", deg.Len(), clean.Len())
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
	f, err := ParseFaultSpec("drop=0.2, corrupt=0.05,spike=0.25,outage=10.0.0.3:10-40,outage=10.0.0.4")
	if err != nil {
		t.Fatal(err)
	}
	if f.DropRate != 0.2 || f.CorruptRate != 0.05 || f.SpikeFraction != 0.25 {
		t.Fatalf("parsed faults %+v", f)
	}
	if len(f.Outages["10.0.0.3"]) != 1 || f.Outages["10.0.0.3"][0] != (faults.Window{Start: 10, End: 40}) {
		t.Fatalf("outage windows %+v", f.Outages)
	}
	if len(f.Outages["10.0.0.4"]) != 1 || !f.Outages["10.0.0.4"][0].Active(999999) {
		t.Fatal("bare outage should cover the whole run")
	}
	f2, err := ParseFaultSpec("")
	if err != nil || f2.DropRate > 0 || f2.CorruptRate > 0 || len(f2.Outages) > 0 {
		t.Fatalf("empty spec injects faults: %+v, %v", f2, err)
	}
	for _, bad := range []string{"drop=2", "drop=NaN", "spike=NaN", "corrupt=-0.1", "nope=1", "outage=:3-4",
		"outage=n:9-3", "delay=0.1", "maxdelay=3", "drop"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// goldenClean is the fixed trace TestLossPatternGolden degrades.
func goldenClean() *metrics.Trace {
	tr := metrics.NewTrace("10.0.0.3", "wordcount")
	row := make([]float64, metrics.Count)
	for t := 0; t < 40; t++ {
		for m := range row {
			row[m] = float64(m+1) * (1 + 0.1*float64(t%7))
		}
		if err := tr.Add(row, 1+0.01*float64(t%5)); err != nil {
			panic(err)
		}
	}
	return tr
}

// writePattern hashes which entries of deg are valid, tick-major with the
// CPI after each tick's metrics, plus the bits of every valid value that
// differs from clean (a spike).
func writePattern(h hash.Hash, clean, deg *metrics.Trace) {
	var b [8]byte
	put := func(valid bool, v, ref float64) {
		if !valid {
			h.Write([]byte{0})
			return
		}
		h.Write([]byte{1})
		if v != ref {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for t := 0; t < clean.Len(); t++ {
		for m := range clean.Rows {
			put(deg.Valid == nil || deg.Valid[m][t], deg.Rows[m][t], clean.Rows[m][t])
		}
		put(deg.CPIValid == nil || deg.CPIValid[t], deg.CPI[t], clean.CPI[t])
	}
}

// TestLossPatternGolden pins which entries are lost, and the spike values,
// bit for bit over seeds 1-3: the sums were captured from the gap-masking
// implementation this model replaced, so the degradation study's losses
// land on the same ticks they always did.
func TestLossPatternGolden(t *testing.T) {
	clean := goldenClean()
	for _, tc := range []struct {
		name string
		f    FaultModel
		sum  string
	}{
		{"drop50", FaultModel{DropRate: 0.5}, "2e5339be0726a2f2add300ea44f07273a5210c373d629acad1976d492f63eeb6"},
		{"drop90", FaultModel{DropRate: 0.9}, "6032674e2094741e2e664712520dea70191b0a25c8c34336239152831c1ae165"},
		{"mixed", FaultModel{DropRate: 0.2, CorruptRate: 0.05, SpikeFraction: 0.25}, "9522923276f6cfca01d604f0320e6203d097db3940fb11fceef3f0b18730ae93"},
		{"outage", FaultModel{Outages: map[string][]faults.Window{"10.0.0.3": {{Start: 5, End: 12}}}}, "6d5b96aa76f4c8840b8683c9fe5ec5cf9d7d9aa16b584f4c75ba4fc3f3becab1"},
	} {
		h := sha256.New()
		for _, seed := range []int64{1, 2, 3} {
			writePattern(h, clean, ingest(t, tc.f, clean, stats.NewRNG(seed)))
		}
		if sum := hex.EncodeToString(h.Sum(nil)); sum != tc.sum {
			t.Errorf("%s: loss pattern sha256 %s, want %s", tc.name, sum, tc.sum)
		}
	}
}

// synthTrace generates a trace whose first `coupled` metrics follow one
// latent series (strong invariants) and whose rest — and any metric in
// decouple — are independent noise.
func synthTrace(rng *stats.RNG, length, coupled int, decouple map[int]bool) *metrics.Trace {
	tr := metrics.NewTrace("10.0.0.2", "wordcount")
	latent := make([]float64, length)
	for t := range latent {
		latent[t] = rng.Uniform(0, 1)
	}
	for t := 0; t < length; t++ {
		row := make([]float64, metrics.Count)
		for m := 0; m < metrics.Count; m++ {
			switch {
			case decouple[m]:
				row[m] = rng.Uniform(0, 1)
			case m < coupled:
				row[m] = float64(m+1)*latent[t] + 0.1 + rng.Normal(0, 0.02)
			default:
				row[m] = rng.Uniform(0, 1)
			}
		}
		if err := tr.Add(row, 1.0+0.3*latent[t]+rng.Normal(0, 0.02)); err != nil {
			panic(err)
		}
	}
	return tr
}

// TestDiagnoseUnderTelemetryFaults is the acceptance scenario: 20% random
// sample loss plus one full node outage, sent through the daemon's ingest
// path. The pipeline must complete diagnosis without panicking, mark
// unavailable invariants unknown, and report a confidence score.
func TestDiagnoseUnderTelemetryFaults(t *testing.T) {
	ctxA := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	ctxB := core.Context{Workload: "wordcount", IP: "10.0.0.3"}
	s := core.New(core.DefaultConfig())
	rng := stats.NewRNG(720)
	for _, ctx := range []core.Context{ctxA, ctxB} {
		var runs []*metrics.Trace
		var cpis [][]float64
		for i := 0; i < 6; i++ {
			tr := synthTrace(rng.Fork(int64(len(runs))+10*int64(len(cpis))), 100, 8, nil)
			runs = append(runs, tr)
			cpis = append(cpis, tr.CPI)
		}
		if err := s.TrainPerformanceModel(ctx, cpis); err != nil {
			t.Fatal(err)
		}
		if err := s.TrainInvariants(ctx, runs); err != nil {
			t.Fatal(err)
		}
	}
	fault := map[int]bool{0: true, 1: true}
	if err := s.BuildSignature(ctxA, "fault-a", synthTrace(rng.Fork(100), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildSignature(ctxB, "fault-a", synthTrace(rng.Fork(101), 40, 8, fault)); err != nil {
		t.Fatal(err)
	}

	f, err := ParseFaultSpec("drop=0.2,outage=" + ctxB.IP)
	if err != nil {
		t.Fatal(err)
	}
	agents := stats.NewRNG(721)

	// Node A: 20% sample loss. Diagnosis completes with partial coverage
	// and still names the fault.
	cleanA := synthTrace(rng.Fork(102), 60, 8, fault)
	cleanA.NodeIP = ctxA.IP
	diagA, err := s.Diagnose(ctxA, ingest(t, f, cleanA, agents))
	if err != nil {
		t.Fatal(err)
	}
	if diagA.Coverage <= 0 || diagA.Coverage > 1 {
		t.Fatalf("node A coverage = %v", diagA.Coverage)
	}
	if diagA.RootCause() != "fault-a" {
		t.Fatalf("node A root cause = %q under 20%% loss", diagA.RootCause())
	}
	if diagA.Confidence <= 0 {
		t.Fatalf("node A confidence = %v, want > 0", diagA.Confidence)
	}

	// Node B: full agent outage. Every tick is invalid, every invariant is
	// unknown, nothing is reported violated, confidence is zero — and
	// nothing panics.
	cleanB := synthTrace(rng.Fork(103), 60, 8, fault)
	cleanB.NodeIP = ctxB.IP
	degB := ingest(t, f, cleanB, agents)
	if degB.ValidFraction() != 0 {
		t.Fatalf("outage node ValidFraction = %v, want 0", degB.ValidFraction())
	}
	for tick, ok := range degB.CPIValid {
		if ok {
			t.Fatalf("outage tick %d carries a valid CPI", tick)
		}
	}
	diagB, err := s.Diagnose(ctxB, degB)
	if err != nil {
		t.Fatal(err)
	}
	if diagB.Coverage != 0 {
		t.Fatalf("outage coverage = %v, want 0", diagB.Coverage)
	}
	for k := range diagB.Tuple {
		if diagB.Tuple[k] {
			t.Fatal("outage window reported a violated invariant")
		}
		if diagB.Known[k] {
			t.Fatal("outage window reported a known invariant")
		}
	}
	if diagB.Confidence != 0 {
		t.Fatalf("outage confidence = %v, want 0", diagB.Confidence)
	}
}
