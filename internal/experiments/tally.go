package experiments

import "invarnetx/internal/core"

// ratio is num/den, 0 when undefined — the one convention every precision,
// recall, accuracy and rate in this package follows.
func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// PRCounts is one label's view of a confusion tally: TP = runs of this
// fault diagnosed as this fault; FN = runs of this fault diagnosed otherwise
// (or not detected at all); FP = runs of other faults diagnosed as this one.
type PRCounts struct {
	TP, FP, FN int
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (c PRCounts) Precision() float64 { return ratio(c.TP, c.TP+c.FP) }

// Recall returns TP/(TP+FN), 0 when undefined.
func (c PRCounts) Recall() float64 { return ratio(c.TP, c.TP+c.FN) }

// Tally reads a set of outcomes as truth × predicted confusion counts — the
// one place precision, recall, accuracy and hit@k are defined. A run's truth
// is its Scenario.Truth(), its prediction the top-ranked cause ("" for the
// two non-answers, undetected and hints-only). A sub-slice tallies a subset.
type Tally []Outcome

func (t Tally) count(pred func(Outcome) bool) int {
	n := 0
	for _, o := range t {
		if pred(o) {
			n++
		}
	}
	return n
}

// Runs returns the number of runs whose ground truth is truth.
func (t Tally) Runs(truth string) int {
	return t.count(func(o Outcome) bool { return o.Scenario.Truth() == truth })
}

// Alerts returns how many of truth's runs got as far as a diagnosis window.
func (t Tally) Alerts(truth string) int {
	return t.count(func(o Outcome) bool { return o.Scenario.Truth() == truth && o.Status != Undetected })
}

// Confused returns how many of truth's runs were diagnosed as predicted.
func (t Tally) Confused(truth, predicted string) int {
	return t.count(func(o Outcome) bool { return o.Scenario.Truth() == truth && o.Predicted() == predicted })
}

// Hits returns how many of truth's runs had all of their k top-ranked causes
// among the injected faults.
func (t Tally) Hits(truth string, k int) int {
	return t.count(func(o Outcome) bool { return o.Scenario.Truth() == truth && o.hit(k) })
}

// Counts returns label's TP/FP/FN view of the tally.
func (t Tally) Counts(label string) PRCounts {
	tp := t.Confused(label, label)
	named := t.count(func(o Outcome) bool { return o.Predicted() == label })
	return PRCounts{TP: tp, FP: named - tp, FN: t.Runs(label) - tp}
}

// HitAt returns the fraction of runs whose k top-ranked causes all name
// injected faults: top-1 accuracy at k=1, "both culprits named" for a
// two-fault run at k=2.
func (t Tally) HitAt(k int) float64 {
	return ratio(t.count(func(o Outcome) bool { return o.hit(k) }), len(t))
}

// Accuracy returns the fraction of runs whose top-ranked cause was injected.
func (t Tally) Accuracy() float64 { return t.HitAt(1) }

// AlertRate returns the fraction of runs that got as far as a diagnosis
// window.
func (t Tally) AlertRate() float64 {
	return ratio(t.count(func(o Outcome) bool { return o.Status != Undetected }), len(t))
}

// MeanCoverage and MeanConfidence average over the diagnosed runs, 0 when
// there are none.
func (t Tally) MeanCoverage() float64 {
	return t.mean(func(d *core.Diagnosis) float64 { return d.Coverage })
}

func (t Tally) MeanConfidence() float64 {
	return t.mean(func(d *core.Diagnosis) float64 { return d.Confidence })
}

func (t Tally) mean(field func(*core.Diagnosis) float64) float64 {
	sum, n := 0.0, 0
	for _, o := range t {
		if o.Diagnosis != nil {
			sum += field(o.Diagnosis)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
