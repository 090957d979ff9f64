package metrics

import (
	"math/rand"
	"testing"
)

// randomStagedTrace builds a trace with a pseudo-random stage timeline and a
// sprinkling of invalid samples, driven by a seeded source so failures
// reproduce.
func randomStagedTrace(r *rand.Rand, width, ticks int) *Trace {
	tr := NewTraceWidth("10.0.0.2", "sort", width)
	stages := []string{"", "map", "shuffle", "reduce"}
	cur := 0
	for t := 0; t < ticks; t++ {
		if r.Intn(5) == 0 && cur < len(stages)-1 {
			cur++
		}
		tr.MarkStage(stages[cur])
		sample := make([]float64, width)
		valid := make([]bool, width)
		for m := range sample {
			sample[m] = r.Float64() * 100
			valid[m] = r.Intn(10) != 0
		}
		addMasked(tr, sample, valid, r.Float64(), r.Intn(10) != 0)
	}
	return tr
}

// TestStageWindowsPartitionTrace is the stage-slicer property test: for any
// stage timeline, the resolved windows tile [first mark, Ticks) exactly once
// each, every sample's window agrees with StageAt, and slicing a window out
// preserves rows, masks and the stage label.
func TestStageWindowsPartitionTrace(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		tr := randomStagedTrace(r, 6, 20+r.Intn(40))
		wins := tr.StageWindows()

		first := tr.Ticks
		if len(tr.Stages) > 0 {
			first = tr.Stages[0].Start
		}
		// Contiguous tiling: windows are ordered, adjacent, and cover
		// [first, Ticks) with no gaps or overlaps.
		at := first
		for _, w := range wins {
			if w.Lo != at {
				t.Fatalf("trial %d: window %+v starts at %d, want %d", trial, w, w.Lo, at)
			}
			if w.Hi <= w.Lo {
				t.Fatalf("trial %d: empty window %+v survived", trial, w)
			}
			at = w.Hi
		}
		if len(wins) > 0 && at != tr.Ticks {
			t.Fatalf("trial %d: windows end at %d, want %d", trial, at, tr.Ticks)
		}

		// Every sample's window agrees with StageAt.
		for _, w := range wins {
			for i := w.Lo; i < w.Hi; i++ {
				if got := tr.StageAt(i); got != w.Stage {
					t.Fatalf("trial %d: StageAt(%d) = %q, window says %q", trial, i, got, w.Stage)
				}
			}
		}

		// Slicing a window out preserves rows, masks, and the stage label.
		for _, w := range wins {
			sub, err := tr.Slice(w.Lo, w.Hi)
			if err != nil {
				t.Fatalf("trial %d: slice %+v: %v", trial, w, err)
			}
			if sub.Len() != w.Hi-w.Lo {
				t.Fatalf("trial %d: slice %+v has %d ticks", trial, w, sub.Len())
			}
			for m := range sub.Rows {
				for i := range sub.Rows[m] {
					if sub.Rows[m][i] != tr.Rows[m][w.Lo+i] {
						t.Fatalf("trial %d: slice row %d sample %d diverged", trial, m, i)
					}
					if sub.Valid[m][i] != tr.Valid[m][w.Lo+i] {
						t.Fatalf("trial %d: slice mask %d sample %d diverged", trial, m, i)
					}
				}
			}
			for i := 0; i < sub.Len(); i++ {
				if got := sub.StageAt(i); got != w.Stage {
					t.Fatalf("trial %d: sliced window %+v StageAt(%d) = %q", trial, w, i, got)
				}
			}
		}
	}
}

func TestMarkStageDedupes(t *testing.T) {
	tr := NewTrace("10.0.0.2", "sort")
	sample := make([]float64, Count)
	add := func(stage string) {
		tr.MarkStage(stage)
		if err := tr.Add(sample, 1); err != nil {
			t.Fatal(err)
		}
	}
	add("")
	add("map")
	add("map")
	add("shuffle")
	add("")
	add("shuffle")
	add("reduce")
	want := []StageMark{{"map", 1}, {"shuffle", 3}, {"reduce", 6}}
	if len(tr.Stages) != len(want) {
		t.Fatalf("stages = %+v, want %+v", tr.Stages, want)
	}
	for i := range want {
		if tr.Stages[i] != want[i] {
			t.Fatalf("stage %d = %+v, want %+v", i, tr.Stages[i], want[i])
		}
	}
}
