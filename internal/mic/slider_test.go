package mic

import (
	"math"
	"sort"
	"testing"

	"invarnetx/internal/stats"
)

// freshPrepared builds the reference preparation for the slider's current
// window the slow way.
func freshPrepared(t *testing.T, s *Slider) *Prepared {
	t.Helper()
	p, err := prepare(append([]float64(nil), s.vals...))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSliderMatchesPrepare drives a slider through appends and evictions
// and, at every step with a clean full-validity window, checks the
// incremental snapshot scores pairs bit-identically to a fresh prepare over
// the same samples. Values are drawn from a small discrete set so tie runs
// (the delicate part of order maintenance) occur constantly.
func TestSliderMatchesPrepare(t *testing.T) {
	rng := stats.NewRNG(1900)
	const cap = 24
	sx := NewSlider(cap, DefaultConfig())
	sy := NewSlider(cap, DefaultConfig())
	sc := new(scratch)
	checked := 0
	for step := 0; step < 400; step++ {
		x := float64(rng.Intn(6)) // heavy ties
		if rng.Float64() < 0.5 {
			x = rng.Uniform(0, 10) // continuous values
		}
		sx.Append(x, true)
		sy.Append(2*x+rng.Normal(0, 0.3), true)
		if len(sx.vals) < minSamples || step%7 != 0 {
			continue
		}
		px, err := sx.Prepared()
		if err != nil {
			t.Fatal(err)
		}
		py, err := sy.Prepared()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ComputePrepared(px, py, sc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ComputePrepared(freshPrepared(t, sx), freshPrepared(t, sy), sc)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d: slider result %+v != fresh %+v", step, got, want)
		}
		checked++
	}
	if checked < 40 {
		t.Fatalf("only %d windows checked", checked)
	}
}

// TestSliderOrderInvariant checks the maintained order stays a valid
// ascending permutation over the usable samples through random validity
// flips and evictions.
func TestSliderOrderInvariant(t *testing.T) {
	rng := stats.NewRNG(1901)
	s := NewSlider(16, DefaultConfig())
	for step := 0; step < 300; step++ {
		v := rng.Uniform(-5, 5)
		valid := rng.Float64() > 0.2
		if rng.Float64() < 0.05 {
			v = math.NaN() // non-finite masquerading as valid
		}
		s.Append(v, valid)

		usable := 0
		for i, ok := range s.ok {
			if ok {
				usable++
				_ = i
			}
		}
		if len(s.order) != usable {
			t.Fatalf("step %d: order has %d entries, %d usable samples", step, len(s.order), usable)
		}
		if !sort.SliceIsSorted(s.order, func(a, b int) bool {
			return s.vals[s.order[a]] < s.vals[s.order[b]]
		}) {
			// SliceIsSorted with strict less tolerates equal neighbours only
			// when not strictly descending; verify non-descending directly.
			for i := 1; i < len(s.order); i++ {
				if s.vals[s.order[i-1]] > s.vals[s.order[i]] {
					t.Fatalf("step %d: order not ascending at %d", step, i)
				}
			}
		}
		seen := map[int]bool{}
		for _, idx := range s.order {
			if idx < 0 || idx >= len(s.vals) || seen[idx] || !s.ok[idx] {
				t.Fatalf("step %d: bad order entry %d", step, idx)
			}
			seen[idx] = true
		}
	}
}

// TestSliderDegenerateWindows: short and masked windows report the same
// sentinel errors the batch path produces for such rows.
func TestSliderDegenerateWindows(t *testing.T) {
	s := NewSlider(32, DefaultConfig())
	for i := 0; i < minSamples-1; i++ {
		s.Append(float64(i), true)
	}
	if _, err := s.Prepared(); err != errTooFewSamples {
		t.Errorf("short window err = %v, want errTooFewSamples", err)
	}
	s.Append(math.Inf(1), true)
	if _, err := s.Prepared(); err != errWindowMasked {
		t.Errorf("masked window err = %v, want errWindowMasked", err)
	}
	// The invalid tick eventually slides out and the window heals.
	for i := 0; i < 32; i++ {
		s.Append(float64(i%9), true)
	}
	if _, err := s.Prepared(); err != nil {
		t.Errorf("healed window err = %v", err)
	}
}

// TestNewBatchPreparedMatchesNewBatch: a batch assembled from slider
// snapshots must score exactly like one built from the raw rows.
func TestNewBatchPreparedMatchesNewBatch(t *testing.T) {
	rng := stats.NewRNG(1902)
	n, m := 30, 5
	rows := make([][]float64, m)
	sliders := make([]*Slider, m)
	for i := range rows {
		rows[i] = make([]float64, n)
		sliders[i] = NewSlider(n, DefaultConfig())
	}
	for tck := 0; tck < n; tck++ {
		base := rng.Uniform(0, 1)
		vals := []float64{base, 2 * base, base * base, rng.Normal(0, 1), float64(rng.Intn(4))}
		for i := range rows {
			rows[i][tck] = vals[i]
			sliders[i].Append(vals[i], true)
		}
	}
	want, err := NewBatch(rows, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	preps := make([]*Prepared, m)
	for i, s := range sliders {
		if preps[i], err = s.Prepared(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewBatchPrepared(preps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			if g, w := got.Score(i, j), want.Score(i, j); g != w {
				t.Errorf("score (%d,%d): prepared batch %v != row batch %v", i, j, g, w)
			}
		}
	}
	// A nil slot is degenerate: it scores 0 and stays nil.
	preps[2] = nil
	got, err = NewBatchPrepared(preps)
	if err != nil {
		t.Fatal(err)
	}
	if s := got.Score(0, 2); s != 0 {
		t.Errorf("score against nil slot = %v, want 0", s)
	}
	if got.prepared[2] != nil {
		t.Error("nil slot came back prepared")
	}
	// Mismatched sample counts are structural errors.
	short := NewSlider(n-1, DefaultConfig())
	for tck := 0; tck < n-1; tck++ {
		short.Append(rng.Float64(), true)
	}
	sp, err := short.Prepared()
	if err != nil {
		t.Fatal(err)
	}
	preps[2] = sp
	if _, err := NewBatchPrepared(preps); err == nil {
		t.Error("mismatched lengths should error")
	}
	if _, err := NewBatchPrepared(nil); err == nil {
		t.Error("empty batch should error")
	}
}

// TestSliderAppendBatchMatchesSequential drives a batched slider and a
// per-sample slider through the same stream — random batch sizes straddling
// the capacity, heavy value ties, masked and non-finite samples — and
// requires the full internal state (window, validity, maintained order) to
// stay identical. AppendBatch is the bulk-ingest fast path; per-sample
// Append is its semantics.
func TestSliderAppendBatchMatchesSequential(t *testing.T) {
	rng := stats.NewRNG(1904)
	const cap = 24
	batched := NewSlider(cap, DefaultConfig())
	seq := NewSlider(cap, DefaultConfig())
	for step := 0; step < 200; step++ {
		n := 1 + rng.Intn(2*cap) // from single samples to window-replacing bulks
		vals := make([]float64, n)
		ok := make([]bool, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(6)) // heavy ties
			if rng.Float64() < 0.4 {
				vals[i] = rng.Uniform(0, 10)
			}
			ok[i] = rng.Float64() < 0.9
			if rng.Float64() < 0.05 {
				vals[i] = math.NaN() // non-finite with valid=true: coerced invalid
			}
		}
		batched.AppendBatch(vals, ok)
		for i := range vals {
			seq.Append(vals[i], ok[i])
		}
		if len(batched.vals) != len(seq.vals) || len(batched.order) != len(seq.order) {
			t.Fatalf("step %d: state sizes diverged: %d/%d vals, %d/%d order",
				step, len(batched.vals), len(seq.vals), len(batched.order), len(seq.order))
		}
		for i := range seq.vals {
			bv, sv := batched.vals[i], seq.vals[i]
			if math.Float64bits(bv) != math.Float64bits(sv) || batched.ok[i] != seq.ok[i] {
				t.Fatalf("step %d sample %d: batched (%v,%v) != sequential (%v,%v)",
					step, i, bv, batched.ok[i], sv, seq.ok[i])
			}
		}
		for i := range seq.order {
			if batched.order[i] != seq.order[i] {
				t.Fatalf("step %d: order diverged at %d: %v vs %v",
					step, i, batched.order, seq.order)
			}
		}
	}
}
