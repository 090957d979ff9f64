package experiments

import (
	"fmt"
	"io"

	"invarnetx/internal/core"
	"invarnetx/internal/faults"
	"invarnetx/internal/signature"
	"invarnetx/internal/workload"
)

// This file implements the extensions the paper sketches but defers:
//
//   - multiple simultaneous faults ("our method could be easily extended to
//     multiple faults by listing multiple root causes whose signatures are
//     most similar to the violation tuple", §4.1);
//   - the growing signature base ("As more performance problems are
//     diagnosed, the number of items in signature database increases
//     gradually", §3.3) — measured as accuracy versus database coverage;
//   - signature-contrast calibration: the per-fault self/cross similarity
//     matrix that predicts which problems a deployment can tell apart.

// MultiFaultResult evaluates top-K diagnosis under two simultaneous faults
// on the same node.
type MultiFaultResult struct {
	Workload workload.Type
	Pairs    []MultiFaultPair
	// HitAt1 / HitAt2 aggregate over all pairs and runs: the fraction of
	// injected faults found within the top-1 / top-2 ranked causes.
	HitAt1, HitAt2 float64
}

// MultiFaultPair is one fault combination's outcome.
type MultiFaultPair struct {
	A, B faults.Kind
	Runs int
	// BothInTop2 counts runs where the top-2 causes are exactly {A, B}.
	BothInTop2 int
	// OneInTop1 counts runs where the top cause is A or B.
	OneInTop1 int
}

// multiFaultPairs are combinations whose effects overlap little, the
// plausible simultaneous-failure scenarios.
var multiFaultPairs = [][2]faults.Kind{
	{faults.CPUHog, faults.MemHog},
	{faults.DiskHog, faults.ThreadLeak},
	{faults.MemHog, faults.BlockCorruption},
}

// multiFaultRows generates the study's rows: single-fault label runs for
// every kind, and runsPerPair investigated runs of each fault pair.
func (r *Runner) multiFaultRows(w workload.Type, runsPerPair int) (label, test []Scenario) {
	for _, pair := range multiFaultPairs {
		for i := 0; i < runsPerPair; i++ {
			test = append(test, Scenario{
				Study:    r.arm("multifault"),
				Workload: w,
				Faults:   []faults.Kind{pair[0], pair[1]},
				Index:    i,
				Origin:   Oracle,
			})
		}
	}
	return r.LabelRows("multifault", w, FaultKindsFor(w)...), test
}

// RunMultiFault trains the system and signature base as usual (single-fault
// signatures), then injects fault pairs and checks whether both culprits
// surface in the top-ranked causes.
func (r *Runner) RunMultiFault(w workload.Type, runsPerPair int) (*MultiFaultResult, error) {
	orDefault(&runsPerPair, 6)
	label, test := r.multiFaultRows(w, runsPerPair)
	_, tally, err := r.trainLabelObserve(w, label, test)
	if err != nil {
		return nil, err
	}
	out := &MultiFaultResult{Workload: w, HitAt1: tally.HitAt(1), HitAt2: tally.HitAt(2)}
	for i, pair := range multiFaultPairs {
		truth := test[i*runsPerPair].Truth()
		out.Pairs = append(out.Pairs, MultiFaultPair{
			A: pair[0], B: pair[1],
			Runs:       tally.Runs(truth),
			OneInTop1:  tally.Hits(truth, 1),
			BothInTop2: tally.Hits(truth, 2),
		})
	}
	return out, nil
}

// Print writes the multi-fault rows.
func (m *MultiFaultResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Multi-fault extension (%s): two simultaneous faults, top-K retrieval\n", m.Workload)
	for _, p := range m.Pairs {
		fmt.Fprintf(w, "  %s + %s: top-1 names one culprit %d/%d, top-2 names both %d/%d\n",
			p.A, p.B, p.OneInTop1, p.Runs, p.BothInTop2, p.Runs)
	}
	fmt.Fprintf(w, "  aggregate: hit@1 %.2f, both@2 %.2f\n", m.HitAt1, m.HitAt2)
}

// GrowthPoint is diagnosis quality with a database covering the first K
// fault kinds.
type GrowthPoint struct {
	KnownFaults int
	// KnownAccuracy is the top-1 accuracy on faults whose signatures are
	// in the database.
	KnownAccuracy float64
	// UnknownHinted is the fraction of runs of not-yet-investigated
	// faults that produced violated-pair hints (the paper's fallback for
	// unknown problems).
	UnknownHinted float64
}

// GrowthResult traces accuracy as the signature base grows.
type GrowthResult struct {
	Workload workload.Type
	Points   []GrowthPoint
}

// growthSteps are the database sizes the growth study stops at, in
// investigated fault kinds out of n.
func growthSteps(n int) []int { return []int{2, n / 2, n} }

// growthRows generates one growth step's rows: label runs for the kinds newly
// investigated at this step, kinds[from:to], and n fresh runs of every kind
// observed from the alert.
func (r *Runner) growthRows(w workload.Type, from, to, n int) (label, test []Scenario) {
	kinds := FaultKindsFor(w)
	tmpl := Scenario{Study: r.arm(fmt.Sprintf("growth@%d", to)), Workload: w, Origin: Alert}
	return r.LabelRows("growth", w, kinds[from:to]...), grid(tmpl, kinds, 0, n)
}

// RunSignatureGrowth evaluates the database lifecycle: starting empty,
// signatures are added fault by fault (the paper's "as more performance
// problems are diagnosed"); at each step the known faults' accuracy and the
// unknown faults' hint coverage are measured on fresh runs.
func (r *Runner) RunSignatureGrowth(w workload.Type, testRunsPerFault int) (*GrowthResult, error) {
	orDefault(&testRunsPerFault, 3)
	sys, _, err := r.TrainSystem(w)
	if err != nil {
		return nil, err
	}
	out := &GrowthResult{Workload: w}
	added := 0
	for _, step := range growthSteps(len(FaultKindsFor(w))) {
		step = max(step, added)
		label, test := r.growthRows(w, added, step, testRunsPerFault)
		if err := r.Label(sys, label); err != nil {
			return nil, err
		}
		added = step
		outs, err := r.observeAll(sys, test)
		if err != nil {
			return nil, err
		}
		// Rows are kind-major, so the investigated kinds' outcomes come first.
		known, unknown := outs[:added*testRunsPerFault], outs[added*testRunsPerFault:]
		out.Points = append(out.Points, GrowthPoint{
			KnownFaults:   added,
			KnownAccuracy: known.Accuracy(),
			UnknownHinted: unknown.AlertRate(),
		})
	}
	return out, nil
}

// Print writes the growth curve.
func (g *GrowthResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Signature-base growth (%s)\n", g.Workload)
	for _, p := range g.Points {
		fmt.Fprintf(w, "  %2d investigated faults: known-fault accuracy %.2f, unknown faults hinted %.2f\n",
			p.KnownFaults, p.KnownAccuracy, p.UnknownHinted)
	}
	fmt.Fprintln(w, "  (accuracy on investigated problems should hold as coverage grows;")
	fmt.Fprintln(w, "   uninvestigated problems still get detected and reported with hints)")
}

// ContrastResult is the per-fault contrast table: each fault's separability
// measured from fresh runs (not the stored database) — the mean similarity
// among its own tuples against the highest mean similarity to any other
// fault's. Negative margins predict misdiagnosis.
type ContrastResult struct {
	Workload   workload.Type
	Invariants int
	Rows       []signature.Separability
}

// contrastRows generates n fresh investigated runs of every kind.
func (r *Runner) contrastRows(w workload.Type, n int) []Scenario {
	tmpl := Scenario{Study: r.arm("contrast"), Workload: w, Origin: Oracle}
	return grid(tmpl, FaultKindsFor(w), freshBase, n)
}

// RunContrast computes the contrast table from tuplesPerFault fresh runs of
// every fault — the calibration view used to tune fault distinguishability
// during development, kept as a first-class diagnostic. Nothing is labelled:
// the rows are observed against an empty signature base for their violation
// tuples alone.
func (r *Runner) RunContrast(w workload.Type, tuplesPerFault int) (*ContrastResult, error) {
	if tuplesPerFault < 2 {
		tuplesPerFault = 3
	}
	sys, outs, err := r.trainLabelObserve(w, nil, r.contrastRows(w, tuplesPerFault))
	if err != nil {
		return nil, err
	}
	set, err := sys.Invariants(core.Context{Workload: string(w), IP: firstSlaveIP})
	if err != nil {
		return nil, err
	}
	// The contrast of fresh runs is the separability of the signature bases
	// they would make: every observed tuple stored under its fault's name,
	// in its context's base.
	bases := make(map[core.Context]*signature.DB)
	var order []*signature.DB
	for _, o := range outs {
		db := bases[o.Context]
		if db == nil {
			db = signature.NewDB(o.Context.Workload, o.Context.IP)
			bases[o.Context], order = db, append(order, db)
		}
		db.Add(o.Scenario.Truth(), o.Diagnosis.Tuple)
	}
	res := &ContrastResult{Workload: w, Invariants: set.Len()}
	for _, db := range order {
		res.Rows = append(res.Rows, db.Separabilities()...)
	}
	return res, nil
}

// Print writes the contrast table, worst margins first.
func (c *ContrastResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Signature contrast (%s): %d invariants\n", c.Workload, c.Invariants)
	fmt.Fprintf(w, "  %-10s %6s %6s %7s  worst-confused-with\n", "fault", "self", "cross", "margin")
	for _, row := range c.Rows {
		fmt.Fprintf(w, "  %-10s %6.2f %6.2f %+7.2f  %s\n",
			row.Problem, row.Cohesion, row.WorstExternal, row.Margin(), row.WorstProblem)
	}
	fmt.Fprintln(w, "  (negative margins predict misdiagnosis; the paper's Lock-R sits here by design)")
}
