package core

import (
	"strings"
	"testing"

	"invarnetx/internal/metrics"
)

// The cross-profile tests reuse the deterministic value-association harness
// from the lifecycle tests: a joint two-node window is 22 constant rows, so
// which cross edges train, violate, or drift is fixed by the value vector.

// jointVals is the 2×11 joint value vector: every metric at 0.8, with node
// A's first metric (joint index 0) overridden — dropping it breaks exactly
// the 11 spanning pairs (0, j) for j in the node-B half.
func jointVals(m0 float64) []float64 {
	vals := make([]float64, 2*len(CrossMetricIdx))
	for i := range vals {
		vals[i] = 0.8
	}
	vals[0] = m0
	return vals
}

// TestCrossProfilePersistQuarantineRoundTrip is the lifecycle/persistence pin
// for the spatio-temporal layer: a trained cross profile saves and restores
// like any profile (invariants, signatures, verdicts intact), drifted cross
// edges quarantine through the same health machinery, and the quarantined
// state itself survives a restart — after which those edges are unknown,
// never violated, in every verdict.
func TestCrossProfilePersistQuarantineRoundTrip(t *testing.T) {
	cfg := lifecycleConfig(t)
	cfg.AssocCacheSize = -1

	key := NewCrossKey("sort", "10.0.0.3", "10.0.0.2", "shuffle")
	if key.NodeA != "10.0.0.2" || key.NodeB != "10.0.0.3" {
		t.Fatalf("key not canonicalised: %+v", key)
	}

	sys := New(cfg)
	if err := sys.TrainInvariants(key.Context(), []*metrics.Trace{valueTrace(jointVals(0.8), 16, 0)}); err != nil {
		t.Fatalf("TrainInvariants: %v", err)
	}
	// 11x11 spanning pairs survive the cross filter; the 2*55 within-node
	// pairs of the joint space belong to the intra-node layer.
	wantEdges := len(CrossMetricIdx) * len(CrossMetricIdx)
	cps := crossRows(sys)
	if len(cps) != 1 || cps[0].Context != key.Context() || cps[0].Invariants != wantEdges || cps[0].Lifecycle.Quarantined != 0 {
		t.Fatalf("trained cross stats %+v, want 1 profile with %d edges", cps, wantEdges)
	}

	fault := func(tweak float64) *metrics.Trace { return valueTrace(jointVals(0.2), 16, tweak) }
	if err := sys.BuildSignature(key.Context(), "xlink@10.0.0.3", fault(0)); err != nil {
		t.Fatalf("BuildSignature: %v", err)
	}

	// Restart: a fresh system restores the cross profile from disk and
	// reproduces the (node, stage) verdict.
	dir := t.TempDir()
	if err := sys.SaveTo(dir); err != nil {
		t.Fatalf("SaveTo: %v", err)
	}
	sys2 := New(cfg)
	if rep, err := sys2.LoadFrom(dir); err != nil || rep.Partial() {
		t.Fatalf("LoadFrom: %v (report %v)", err, rep)
	}
	cps = crossRows(sys2)
	if len(cps) != 1 || cps[0].Invariants != wantEdges || cps[0].Signatures != 1 {
		t.Fatalf("restored cross stats %+v, want %d edges and 1 signature", cps, wantEdges)
	}
	diag, err := sys2.Diagnose(key.Context(), fault(1e-3))
	if err != nil {
		t.Fatalf("Diagnose after restore: %v", err)
	}
	if len(diag.Hints) != len(CrossMetricIdx) {
		t.Fatalf("restored diagnosis hints %v, want the %d spanning pairs of the dropped metric", diag.Hints, len(CrossMetricIdx))
	}
	v := MergeCrossDiagnoses([]*Diagnosis{diag})
	if v == nil || v.Problem != "xlink" || v.Node != "10.0.0.3" || v.Stage != "shuffle" || v.Score <= 0 {
		t.Fatalf("restored verdict %+v, want xlink@10.0.0.3 in shuffle", v)
	}

	// Persistent drift on the same metric: the 11 affected cross edges ride
	// the health series into quarantine.
	quarantined := 0
	for i := 0; i < 12 && quarantined == 0; i++ {
		if _, err := sys2.Violations(key.Context(), fault(float64(2+i)*1e-6)); err != nil {
			t.Fatalf("drift window %d: %v", i, err)
		}
		quarantined = crossRows(sys2)[0].Lifecycle.Quarantined
	}
	if quarantined != len(CrossMetricIdx) {
		t.Fatalf("quarantined %d cross edges, want %d", quarantined, len(CrossMetricIdx))
	}
	// A system holding only the cross profile: the reducer's total is the
	// cross layer's total.
	if st := totals(sys2); st.Lifecycle.Quarantined != quarantined || st.Invariants != wantEdges || st.Signatures != 1 {
		t.Fatalf("cross totals %+v diverge from the profile snapshot", st)
	}

	// Second restart, mid-quarantine: the quarantine map comes back, and the
	// quarantined edges are absent from verdicts — unknown, never violated.
	dir2 := t.TempDir()
	if err := sys2.SaveTo(dir2); err != nil {
		t.Fatalf("SaveTo mid-quarantine: %v", err)
	}
	sys3 := New(cfg)
	if rep, err := sys3.LoadFrom(dir2); err != nil || rep.Partial() {
		t.Fatalf("LoadFrom mid-quarantine: %v (report %v)", err, rep)
	}
	if got := crossRows(sys3)[0].Lifecycle.Quarantined; got != quarantined {
		t.Fatalf("restored %d quarantined cross edges, want %d", got, quarantined)
	}
	diag3, err := sys3.Diagnose(key.Context(), fault(0.5))
	if err != nil {
		t.Fatalf("Diagnose mid-quarantine: %v", err)
	}
	if len(diag3.Hints) != 0 {
		t.Fatalf("quarantined cross edges still violated: %v", diag3.Hints)
	}
	if len(diag3.Unknown) != quarantined || diag3.Coverage >= 1 {
		t.Fatalf("quarantined edges not surfaced as unknown: %d unknown, coverage %v", len(diag3.Unknown), diag3.Coverage)
	}
	for _, u := range diag3.Unknown {
		if !strings.Contains(u, "@"+key.NodeA) && !strings.Contains(u, "@"+key.NodeB) {
			t.Fatalf("unknown pair %q not named in cross coordinates", u)
		}
	}
}
