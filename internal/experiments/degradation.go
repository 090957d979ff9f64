package experiments

import (
	"fmt"
	"io"

	"invarnetx/internal/faults"
	"invarnetx/internal/telemetry"
	"invarnetx/internal/workload"
)

// DegradationPoint is the diagnosis outcome at one telemetry loss level.
type DegradationPoint struct {
	// DropRate is the injected per-reading loss probability.
	DropRate float64
	// Runs is how many faulted runs were diagnosed at this level.
	Runs int
	// Correct counts runs whose top-ranked cause was the injected fault;
	// Accuracy is Correct/Runs.
	Correct  int
	Accuracy float64
	// MeanCoverage is the mean fraction of invariants that stayed
	// checkable; MeanConfidence the mean coverage-weighted top score.
	MeanCoverage   float64
	MeanConfidence float64
}

// DegradationStudy measures how diagnosis accuracy and the reported
// confidence degrade as the telemetry stream loses samples — the
// robustness companion to the paper's accuracy figures. A well-behaved
// system degrades gracefully: accuracy falls with loss, and the confidence
// score falls with it, so operators can tell a confident diagnosis from a
// guess made half-blind.
type DegradationStudy struct {
	Workload workload.Type
	Fault    faults.Kind
	Points   []DegradationPoint
}

// Print writes one line per loss level.
func (s *DegradationStudy) Print(w io.Writer) {
	fmt.Fprintf(w, "telemetry degradation: %s under %s\n", s.Workload, s.Fault)
	for _, p := range s.Points {
		fmt.Fprintf(w, "  drop %4.0f%%: accuracy %.2f, coverage %.2f, confidence %.2f (%d runs)\n",
			p.DropRate*100, p.Accuracy, p.MeanCoverage, p.MeanConfidence, p.Runs)
	}
}

// degradationRows generates the study's rows: the usual label runs, and per
// loss level runsPerRate runs of kind whose investigated window is sent
// through a lossy agent.
func (r *Runner) degradationRows(w workload.Type, kind faults.Kind, dropRates []float64, runsPerRate int) (label, test []Scenario) {
	for ri, rate := range dropRates {
		for i := 0; i < runsPerRate; i++ {
			test = append(test, Scenario{
				Study:         r.arm("degradation"),
				Workload:      w,
				Faults:        []faults.Kind{kind},
				Index:         i,
				Origin:        Oracle,
				Telemetry:     &telemetry.FaultModel{DropRate: rate},
				TelemetrySalt: int64(1000*ri + i),
			})
		}
	}
	return r.LabelRows("degradation", w, FaultKindsFor(w)...), test
}

// RunDegradationStudy trains the pipeline for workload w, builds the
// signature base, then diagnoses runsPerRate faulted runs of kind at each
// sample-loss level in dropRates, sending every abnormal window through a
// lossy agent (telemetry.FaultModel) and the daemon's ingest path before
// diagnosis, so lost samples surface as unknown invariants rather than
// fabricated values — exactly as invarnetd serves them.
func (r *Runner) RunDegradationStudy(w workload.Type, kind faults.Kind, dropRates []float64, runsPerRate int) (*DegradationStudy, error) {
	if !faults.Valid(kind) {
		return nil, fmt.Errorf("experiments: unknown fault %q", kind)
	}
	for _, rate := range dropRates {
		if !(rate >= 0 && rate <= 1) {
			return nil, fmt.Errorf("experiments: drop rate %v is not a probability", rate)
		}
	}
	runsPerRate = max(runsPerRate, 0)
	label, test := r.degradationRows(w, kind, dropRates, runsPerRate)
	_, outs, err := r.trainLabelObserve(w, label, test)
	if err != nil {
		return nil, err
	}
	study := &DegradationStudy{Workload: w, Fault: kind}
	for ri, rate := range dropRates {
		t := outs[ri*runsPerRate : (ri+1)*runsPerRate]
		study.Points = append(study.Points, DegradationPoint{
			DropRate:       rate,
			Runs:           len(t),
			Correct:        t.Hits(string(kind), 1),
			Accuracy:       t.Accuracy(),
			MeanCoverage:   t.MeanCoverage(),
			MeanConfidence: t.MeanConfidence(),
		})
	}
	return study, nil
}
