package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestDriftStudyLifecycleRecovers pins the headline robustness claim: after
// a permanent mid-trace coupling shift, the train-once arm degenerates into
// a constant false-positive stream, while the lifecycle arm quarantines the
// drifted edges, promotes a re-estimated shadow generation and returns to
// its pre-drift precision — without ever losing a genuine fault and without
// a single violation report naming a quarantined pair.
func TestDriftStudyLifecycleRecovers(t *testing.T) {
	study, err := runDriftStudy(1)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	study.Print(&out)
	t.Logf("\n%s", out.String())

	to, lc := &study.TrainOnce, &study.Lifecycle

	// Both arms are clean before the shift: the tuning is not trading
	// pre-drift precision for drift tolerance.
	if to.Pre.FPRate() != 0 || lc.Pre.FPRate() != 0 {
		t.Fatalf("pre-drift FP rates = %.2f / %.2f, want 0 for both arms",
			to.Pre.FPRate(), lc.Pre.FPRate())
	}

	// Train-once turns the shift into false positives and never recovers.
	if to.Post.FPRate() < 0.5 {
		t.Fatalf("train-once post-drift FP rate = %.2f — drift injection too weak to matter",
			to.Post.FPRate())
	}
	if to.Post.FPRate() <= to.Pre.FPRate() {
		t.Fatalf("train-once FP rate did not rise across the shift: pre %.2f, post %.2f",
			to.Pre.FPRate(), to.Post.FPRate())
	}

	// The lifecycle arm quarantines every edge of the drifted metric and
	// promotes exactly one shadow generation.
	if lc.PeakQuarantined == 0 {
		t.Fatal("lifecycle arm never quarantined a drifted edge")
	}
	if lc.Promotions < 1 {
		t.Fatalf("lifecycle promotions = %d, want at least one shadow promotion", lc.Promotions)
	}
	if lc.FinalGeneration < 2 {
		t.Fatalf("final generation = %d, want the promoted generation (>= 2)", lc.FinalGeneration)
	}

	// Self-healing: post-drift precision and FP rate recover to within 0.05
	// of the pre-drift values.
	if d := math.Abs(lc.Post.FPRate() - lc.Pre.FPRate()); d > 0.05 {
		t.Fatalf("lifecycle post-drift FP rate %.2f not within 0.05 of pre-drift %.2f",
			lc.Post.FPRate(), lc.Pre.FPRate())
	}
	if d := math.Abs(lc.Post.Precision() - lc.Pre.Precision()); d > 0.05 {
		t.Fatalf("lifecycle post-drift precision %.2f not within 0.05 of pre-drift %.2f",
			lc.Post.Precision(), lc.Pre.Precision())
	}

	// Quarantine must not eat real faults: the burst metric's edges stay
	// live, so recall holds through every phase.
	for _, ph := range []*DriftPhaseStats{&lc.Pre, &lc.Shift, &lc.Post} {
		if ph.Recall() != 1 {
			t.Fatalf("lifecycle %s recall = %.2f, want 1 — quarantine swallowed a fault burst",
				ph.Name, ph.Recall())
		}
	}

	// The masking contract: zero violation reports attributable to a
	// quarantined edge, in either direction of the lifecycle.
	if lc.QuarantineLeaks != 0 {
		t.Fatalf("%d violation reports named a quarantined pair, want 0", lc.QuarantineLeaks)
	}
	if lc.Rollbacks != 0 {
		t.Fatalf("rollbacks = %d — shadow estimation failed to converge on steady post-shift traffic",
			lc.Rollbacks)
	}
}

// TestDriftStudyDeterministic guards the study's reproducibility: the same
// seed must yield the identical trajectory (the experiment is pinned in CI,
// so flakiness here would poison the acceptance gate).
func TestDriftStudyDeterministic(t *testing.T) {
	a, err := runDriftStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runDriftStudy(7)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("same seed, different studies:\n%+v\nvs\n%+v", *a, *b)
	}
}
