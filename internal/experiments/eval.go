package experiments

import (
	"slices"
	"sort"

	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

// StudyRow is one fault's outcome in a diagnosis study.
type StudyRow struct {
	Fault    faults.Kind
	Counts   PRCounts
	Runs     int
	Detected int // runs where the anomaly detector fired
}

// Study is the result of a full-pipeline diagnosis experiment (Figs. 7-10).
type Study struct {
	Workload workload.Type
	System   string // "invarnet-x", "arx", "no-context"
	Rows     []StudyRow
}

// Row returns the row for kind, or nil.
func (s *Study) Row(kind faults.Kind) *StudyRow {
	if i := slices.IndexFunc(s.Rows, func(r StudyRow) bool { return r.Fault == kind }); i >= 0 {
		return &s.Rows[i]
	}
	return nil
}

// AveragePrecision returns the unweighted mean per-fault precision.
func (s *Study) AveragePrecision() float64 {
	return s.average(PRCounts.Precision)
}

// AverageRecall returns the unweighted mean per-fault recall.
func (s *Study) AverageRecall() float64 {
	return s.average(PRCounts.Recall)
}

func (s *Study) average(metric func(PRCounts) float64) float64 {
	if len(s.Rows) == 0 {
		return 0
	}
	var sum float64
	for _, r := range s.Rows {
		sum += metric(r.Counts)
	}
	return sum / float64(len(s.Rows))
}

// heldOutRows generates the evaluation's two row sets for kinds under w: the
// SignatureRuns investigated runs per kind that label the signature base, and
// the remaining RunsPerFault-SignatureRuns runs, observed from the alert.
func (r *Runner) heldOutRows(study string, w workload.Type, kinds []faults.Kind, labelStride int) (label, test []Scenario) {
	tmpl := Scenario{Study: r.arm(study), Workload: w, Origin: Alert}
	return r.labelRows(study, w, kinds, labelStride), grid(tmpl, kinds, 0, r.opts.RunsPerFault-r.opts.SignatureRuns)
}

// RunDiagnosisStudy executes the full InvarNet-X pipeline for workload w:
// train models and invariants on normal runs, build the signature database
// from SignatureRuns runs per fault, then detect + diagnose the remaining
// runs and tally per-fault precision/recall. systemName labels the result.
func (r *Runner) RunDiagnosisStudy(w workload.Type, systemName string) (*Study, error) {
	label, test := r.heldOutRows("diagnosis/"+systemName, w, FaultKindsFor(w), r.opts.Slaves)
	_, tally, err := r.trainLabelObserve(w, label, test)
	if err != nil {
		return nil, err
	}
	study := &Study{Workload: w, System: systemName}
	for _, kind := range FaultKindsFor(w) {
		k := string(kind)
		study.Rows = append(study.Rows, StudyRow{Fault: kind, Counts: tally.Counts(k), Runs: tally.Runs(k), Detected: tally.Alerts(k)})
	}
	sort.Slice(study.Rows, func(a, b int) bool { return study.Rows[a].Fault < study.Rows[b].Fault })
	return study, nil
}

// ConfusionPair reports how often two faults were mistaken for each other —
// the paper's "signature conflict" analysis for Net-drop vs Net-delay.
type ConfusionPair struct {
	Workload   workload.Type
	A, B       faults.Kind
	AasB, BasA int
	Runs       int
}

// RunConfusion measures the mutual confusion of two faults under w: a
// two-kind diagnosis study read off the tally's off-diagonal.
func (r *Runner) RunConfusion(w workload.Type, a, b faults.Kind) (*ConfusionPair, error) {
	label, test := r.heldOutRows("confusion", w, []faults.Kind{a, b}, 1)
	_, tally, err := r.trainLabelObserve(w, label, test)
	if err != nil {
		return nil, err
	}
	return &ConfusionPair{
		Workload: w, A: a, B: b,
		AasB: tally.Confused(string(a), string(b)),
		BasA: tally.Confused(string(b), string(a)),
		Runs: tally.Runs(string(a)),
	}, nil
}
