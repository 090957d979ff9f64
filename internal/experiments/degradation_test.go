package experiments

import (
	"math"
	"strings"
	"testing"

	"invarnetx/internal/workload"
)

func TestDegradationStudy(t *testing.T) {
	r := NewRunner(tinyOptions())
	// 90% loss: even after retries most readings stay missing, so pair
	// overlaps fall under the minimum sample count and coverage drops.
	study, err := r.RunDegradationStudy(workload.Wordcount, "cpu-hog", []float64{0, 0.9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 2 {
		t.Fatalf("points = %d", len(study.Points))
	}
	clean, lossy := study.Points[0], study.Points[1]
	if clean.Runs != 2 || lossy.Runs != 2 {
		t.Fatalf("run counts: %+v", study.Points)
	}
	if clean.MeanCoverage != 1 {
		t.Fatalf("clean coverage = %v, want 1", clean.MeanCoverage)
	}
	if lossy.MeanCoverage >= clean.MeanCoverage {
		t.Fatalf("coverage did not fall with loss: %v >= %v", lossy.MeanCoverage, clean.MeanCoverage)
	}
	// Confidence must degrade alongside coverage: a half-blind diagnosis
	// may not report clean-level certainty.
	if lossy.MeanConfidence >= clean.MeanConfidence {
		t.Fatalf("confidence did not fall with loss: %v >= %v", lossy.MeanConfidence, clean.MeanConfidence)
	}
	var out strings.Builder
	study.Print(&out)
	s := out.String()
	if !strings.Contains(s, "drop") || !strings.Contains(s, "accuracy") {
		t.Fatalf("report = %q", s)
	}
}

func TestDegradationStudyValidation(t *testing.T) {
	r := NewRunner(tinyOptions())
	if _, err := r.RunDegradationStudy(workload.Wordcount, "no-such-fault", []float64{0}, 1); err == nil {
		t.Fatal("unknown fault accepted")
	}
	for _, rate := range []float64{1.5, -0.1, math.NaN()} {
		if _, err := r.RunDegradationStudy(workload.Wordcount, "cpu-hog", []float64{rate}, 1); err == nil {
			t.Fatalf("drop rate %v accepted", rate)
		}
	}
}
