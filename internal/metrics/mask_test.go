package metrics

import (
	"math"
	"testing"
)

func fullVector(v float64) []float64 {
	s := make([]float64, Count)
	for i := range s {
		s[i] = v
	}
	return s
}

func allTrue() []bool { return trueMask(Count) }

// trueMask is an all-true validity row of length n.
func trueMask(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// addMasked appends one sampled vector with its validity mask. valid[m]
// false marks metric m's entry as not a genuine observation; cpiValid
// likewise for the CPI reading. The first masked append backfills all-true
// masks over the earlier ticks, which were genuine.
func addMasked(t *Trace, sample []float64, valid []bool, cpiValue float64, cpiValid bool) {
	if t.Valid == nil {
		t.Valid = make([][]bool, len(t.Rows))
		for m := range t.Valid {
			t.Valid[m] = trueMask(t.Ticks)
		}
		t.CPIValid = trueMask(t.Ticks)
	}
	for m, v := range sample {
		t.Rows[m] = append(t.Rows[m], v)
		t.Valid[m] = append(t.Valid[m], valid[m])
	}
	t.CPI = append(t.CPI, cpiValue)
	t.CPIValid = append(t.CPIValid, cpiValid)
	t.Ticks++
}

func TestTraceUnmaskedStaysUnmasked(t *testing.T) {
	tr := NewTrace("10.0.0.2", "wordcount")
	for i := 0; i < 5; i++ {
		if err := tr.Add(fullVector(float64(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Valid != nil {
		t.Fatal("plain Add materialised masks")
	}
	if f := tr.ValidFraction(); f != 1 {
		t.Fatalf("ValidFraction = %v, want 1", f)
	}
	if tr.MetricValid(0) != nil {
		t.Fatal("MetricValid should be nil for unmasked trace")
	}
}

func TestAddMaskedBackfills(t *testing.T) {
	tr := NewTrace("10.0.0.2", "sort")
	tr.Add(fullVector(1), 1)
	tr.Add(fullVector(2), 1)
	mask := allTrue()
	mask[3] = false
	sample := fullVector(3)
	sample[3] = math.NaN()
	addMasked(tr, sample, mask, math.NaN(), false)
	if tr.Valid == nil {
		t.Fatal("trace not masked after addMasked")
	}
	// Backfilled prefix is all genuine.
	for m := 0; m < Count; m++ {
		for i := 0; i < 2; i++ {
			if !tr.Valid[m][i] {
				t.Fatalf("backfilled mask false at metric %d tick %d", m, i)
			}
		}
	}
	if tr.Valid[3][2] {
		t.Fatal("masked entry recorded as valid")
	}
	if tr.CPIValid[2] {
		t.Fatal("masked CPI recorded as valid")
	}
	if !tr.CPIValid[0] || !tr.CPIValid[1] {
		t.Fatal("backfilled CPI mask not true")
	}
	// Subsequent plain Adds keep masks parallel.
	tr.Add(fullVector(4), 1)
	if len(tr.Valid[0]) != tr.Ticks || len(tr.CPIValid) != tr.Ticks {
		t.Fatalf("mask length %d/%d diverged from ticks %d", len(tr.Valid[0]), len(tr.CPIValid), tr.Ticks)
	}
	if !tr.Valid[3][3] {
		t.Fatal("plain Add after masking should append true")
	}
	wantFrac := float64(4*Count-1) / float64(4*Count)
	if f := tr.ValidFraction(); math.Abs(f-wantFrac) > 1e-12 {
		t.Fatalf("ValidFraction = %v, want %v", f, wantFrac)
	}
}

func TestSliceCarriesMasks(t *testing.T) {
	tr := NewTrace("10.0.0.2", "grep")
	for i := 0; i < 6; i++ {
		mask := allTrue()
		if i == 4 {
			mask[7] = false
		}
		addMasked(tr, fullVector(float64(i)), mask, 1, i != 4)
	}
	win, err := tr.Slice(3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if win.Valid == nil || len(win.Valid[7]) != 3 {
		t.Fatal("slice dropped masks")
	}
	if win.Valid[7][1] {
		t.Fatal("slice mask misaligned: tick 4 should be invalid at offset 1")
	}
	if win.CPIValid[1] {
		t.Fatal("slice CPI mask misaligned")
	}
	// Unmasked slice stays unmasked.
	plain := NewTrace("x", "y")
	plain.Add(fullVector(1), 1)
	plain.Add(fullVector(2), 1)
	w2, _ := plain.Slice(0, 1)
	if w2.Valid != nil {
		t.Fatal("unmasked slice grew masks")
	}
}
