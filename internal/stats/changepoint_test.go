package stats

import (
	"math"
	"testing"
)

func TestCUSUMPersistentShiftAlarms(t *testing.T) {
	c := NewCUSUM(0.1, 2)
	// A violation indicator stuck at 1 accumulates 0.9 per observation:
	// the alarm must fire on the third (2.7 > 2), not before.
	for i := 0; i < 2; i++ {
		if c.Offer(1) {
			t.Fatalf("alarm after %d observations, want >= 3", i+1)
		}
	}
	if !c.Offer(1) {
		t.Fatalf("no alarm after 3 observations at mean 1 (drift 0.1, threshold 2)")
	}
	if !c.Offer(math.NaN()) {
		t.Fatalf("alarm dropped by an ignored (non-finite) observation")
	}
}

func TestCUSUMIsolatedBlipDecays(t *testing.T) {
	c := NewCUSUM(0.25, 3)
	if c.Offer(1) {
		t.Fatalf("alarm on a single observation")
	}
	// Quiet observations drain the accumulator at the drift rate.
	for i := 0; i < 3; i++ {
		c.Offer(0)
	}
	if got := c.Value(); got != 0 {
		t.Fatalf("accumulator = %v after blip + 3 quiet observations, want 0", got)
	}
	// Blips spaced wider than their decay never accumulate to an alarm.
	for round := 0; round < 50; round++ {
		if c.Offer(1) {
			t.Fatalf("alarm from sparse blips on round %d", round)
		}
		for i := 0; i < 3; i++ {
			c.Offer(0)
		}
	}
}

func TestCUSUMResetAndRestore(t *testing.T) {
	c := NewCUSUM(0, 1)
	if !c.Offer(10) {
		t.Fatalf("no alarm at sum 10 over threshold 1")
	}
	c.Reset()
	if c.Value() != 0 || c.Offer(math.NaN()) {
		t.Fatalf("Reset left sum=%v, still alarming", c.Value())
	}
	c.Restore(0.7)
	if c.Value() != 0.7 {
		t.Fatalf("Restore(0.7) → Value %v", c.Value())
	}
	c.Restore(math.NaN())
	if c.Value() != 0 {
		t.Fatalf("Restore(NaN) → Value %v, want 0", c.Value())
	}
	c.Restore(-5)
	if c.Value() != 0 {
		t.Fatalf("Restore(-5) → Value %v, want 0", c.Value())
	}
}

func TestCUSUMIgnoresNonFinite(t *testing.T) {
	c := NewCUSUM(0, 1)
	c.Offer(0.5)
	before := c.Value()
	c.Offer(math.NaN())
	c.Offer(math.Inf(1))
	if c.Value() != before {
		t.Fatalf("non-finite observations moved the accumulator: %v → %v", before, c.Value())
	}
}

func TestDetectorConstructorsSanitise(t *testing.T) {
	// Broken parameters must yield a usable (if conservative) detector, not
	// one that alarms always or never due to NaN poisoning.
	c := NewCUSUM(math.NaN(), math.Inf(1))
	if c.Offer(1) {
		t.Fatalf("sanitised CUSUM alarmed on first observation")
	}
}
