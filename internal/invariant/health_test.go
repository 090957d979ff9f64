package invariant

import "testing"

func healthSet(t *testing.T) *Set {
	t.Helper()
	return NewSet(4, map[Pair]float64{
		{I: 0, J: 1}: 0.9,
		{I: 0, J: 2}: 0.8,
		{I: 1, J: 3}: 0.7,
	})
}

// observe feeds n identical windows and returns every newly drifted index.
func observe(t *testing.T, h *Health, tuple, known []bool, n int) []int {
	t.Helper()
	var drifted []int
	for i := 0; i < n; i++ {
		d, err := h.Observe(tuple, known)
		if err != nil {
			t.Fatalf("Observe: %v", err)
		}
		drifted = append(drifted, d...)
	}
	return drifted
}

func TestHealthQuarantinesPersistentViolator(t *testing.T) {
	set := healthSet(t)
	h := NewHealth(set, HealthConfig{MinObservations: 4, Drift: 0.1, Threshold: 2})
	// Edge 1 (pair 0-2) violates every window; the others hold.
	tuple := []bool{false, true, false}
	drifted := observe(t, h, tuple, nil, 10)
	if len(drifted) != 1 || drifted[0] != 1 {
		t.Fatalf("drifted = %v, want [1]", drifted)
	}
	if h.state[1] != EdgeQuarantined || h.state[0] != EdgeLive || h.state[2] != EdgeLive {
		t.Fatalf("states = %v", h.state)
	}
	if h.QuarantinedCount() != 1 {
		t.Fatalf("QuarantinedCount = %d, want 1", h.QuarantinedCount())
	}
	mask := h.Quarantined()
	want := []bool{false, true, false}
	for k := range want {
		if mask[k] != want[k] {
			t.Fatalf("Quarantined mask = %v, want %v", mask, want)
		}
	}
}

func TestHealthMinObservationsDelaysVerdict(t *testing.T) {
	set := healthSet(t)
	h := NewHealth(set, HealthConfig{MinObservations: 8, Drift: 0.1, Threshold: 2})
	tuple := []bool{true, false, false}
	// The CUSUM crosses its threshold after ~3 windows, but the verdict
	// must wait for the 8th observation.
	if d := observe(t, h, tuple, nil, 7); len(d) != 0 {
		t.Fatalf("drifted before MinObservations: %v", d)
	}
	if d := observe(t, h, tuple, nil, 1); len(d) != 1 || d[0] != 0 {
		t.Fatalf("drifted = %v at observation 8, want [0]", d)
	}
}

func TestHealthFaultBurstDoesNotQuarantine(t *testing.T) {
	set := healthSet(t)
	h := NewHealth(set, HealthConfig{MinObservations: 4, Drift: 0.25, Threshold: 3})
	violating := []bool{true, true, true}
	clean := []bool{false, false, false}
	// Repeated 2-window fault bursts separated by 10 clean windows: the
	// accumulated evidence drains between bursts and nothing quarantines.
	for round := 0; round < 20; round++ {
		if d := observe(t, h, violating, nil, 2); len(d) != 0 {
			t.Fatalf("burst round %d quarantined %v", round, d)
		}
		if d := observe(t, h, clean, nil, 10); len(d) != 0 {
			t.Fatalf("clean stretch round %d quarantined %v", round, d)
		}
	}
}

func TestHealthUnknownEdgesCarryNoInformation(t *testing.T) {
	set := healthSet(t)
	h := NewHealth(set, HealthConfig{MinObservations: 2, Drift: 0.1, Threshold: 1})
	tuple := []bool{true, true, true}
	known := []bool{false, false, false}
	if d := observe(t, h, tuple, known, 50); len(d) != 0 {
		t.Fatalf("fully-unknown windows quarantined %v", d)
	}
	for _, e := range h.Snapshot() {
		if e.Obs != 0 || e.Viol != 0 {
			t.Fatalf("unknown window counted: %+v", e)
		}
	}
}

func TestHealthObserveShapeErrors(t *testing.T) {
	h := NewHealth(healthSet(t), HealthConfig{})
	if _, err := h.Observe([]bool{true}, nil); err == nil {
		t.Fatalf("short tuple accepted")
	}
	if _, err := h.Observe([]bool{true, false, false}, []bool{true}); err == nil {
		t.Fatalf("short known mask accepted")
	}
}

func TestHealthSnapshotRestoreRoundTrip(t *testing.T) {
	set := healthSet(t)
	h := NewHealth(set, HealthConfig{MinObservations: 2, Drift: 0.1, Threshold: 1})
	observe(t, h, []bool{false, true, false}, nil, 6)
	snap := h.Snapshot()

	h2 := NewHealth(set, HealthConfig{MinObservations: 2, Drift: 0.1, Threshold: 1})
	for _, e := range snap {
		if _, err := h2.Restore(e); err != nil {
			t.Fatalf("Restore: %v", err)
		}
	}
	if h2.QuarantinedCount() != h.QuarantinedCount() {
		t.Fatalf("restored QuarantinedCount = %d, want %d", h2.QuarantinedCount(), h.QuarantinedCount())
	}
	snap2 := h2.Snapshot()
	for k := range snap {
		if snap[k] != snap2[k] {
			t.Fatalf("edge %d: restored %+v, want %+v", k, snap2[k], snap[k])
		}
	}
	// Restoring twice must not double-count the quarantine tally.
	for _, e := range snap {
		if _, err := h2.Restore(e); err != nil {
			t.Fatalf("second Restore: %v", err)
		}
	}
	if h2.QuarantinedCount() != h.QuarantinedCount() {
		t.Fatalf("double restore skewed QuarantinedCount to %d", h2.QuarantinedCount())
	}
	if _, err := h2.Restore(EdgeHealth{Pair: Pair{I: 2, J: 3}}); err == nil {
		t.Fatalf("restore of unknown pair accepted")
	}
}

func TestEdgeStateStringParse(t *testing.T) {
	for _, st := range []EdgeState{EdgeLive, EdgeQuarantined} {
		got, err := ParseEdgeState(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseEdgeState(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseEdgeState("zombie"); err == nil {
		t.Fatalf("ParseEdgeState accepted garbage")
	}
}

func TestViolatedMatchesInternalVerdict(t *testing.T) {
	cases := []struct {
		base, score, eps float64
		want             bool
	}{
		{0.9, 0.9, 0.2, false},
		{0.9, 0.71, 0.2, false},
		{0.9, 0.7, 0.2, true}, // exactly epsilon: violated (slack)
		{0.9, 0.3, 0.2, true},
		{0.2, 0.5, 0, true}, // eps<=0 selects DefaultEpsilon
	}
	for _, c := range cases {
		if got := Violated(c.base, c.score, c.eps); got != c.want {
			t.Fatalf("Violated(%v,%v,%v) = %v, want %v", c.base, c.score, c.eps, got, c.want)
		}
	}
}
