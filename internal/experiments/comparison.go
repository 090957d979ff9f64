package experiments

import (
	"fmt"
	"io"

	"invarnetx/internal/arx"
	"invarnetx/internal/core"
	"invarnetx/internal/workload"
)

// SystemVariant names the three systems compared in Figs. 9 and 10.
type SystemVariant string

// The compared systems.
const (
	// VariantInvarNetX is the full system: MIC invariants + operation
	// context.
	VariantInvarNetX SystemVariant = "invarnet-x"
	// VariantARX replaces MIC with the ARX fitness of Jiang et al.
	VariantARX SystemVariant = "arx"
	// VariantNoContext is InvarNet-X without operation context: one
	// global model and an unscoped signature base (Runner.scope).
	VariantNoContext SystemVariant = "no-context"
)

// variants returns the comparison set in presentation order.
func variants() []SystemVariant {
	return []SystemVariant{VariantInvarNetX, VariantARX, VariantNoContext}
}

// configFor builds the core configuration of a variant on top of base: the
// ARX arm changes the association measure, the other two run base as is.
func configFor(v SystemVariant, base core.Config) core.Config {
	cfg := base
	if v == VariantARX {
		cfg.Assoc = arx.Association
	}
	return cfg
}

// ComparisonResult is the Figs. 9/10 experiment: per-fault precision and
// recall of the three systems on one workload.
type ComparisonResult struct {
	Workload workload.Type
	Studies  map[SystemVariant]*Study
}

// variant returns the runner of one comparison arm: faults rotate across the
// heterogeneous nodes so that the value of per-node scoping is actually
// exercised, and all three variants see identical runs.
func (r *Runner) variant(v SystemVariant) *Runner {
	opts := r.opts
	opts.RotateTargets = true
	opts.Config = configFor(v, r.opts.Config)
	vr := NewRunner(opts)
	vr.noContext = v == VariantNoContext
	return vr
}

// RunComparison executes the full diagnosis study once per system variant.
func (r *Runner) RunComparison(w workload.Type) (*ComparisonResult, error) {
	out := &ComparisonResult{Workload: w, Studies: make(map[SystemVariant]*Study)}
	for _, v := range variants() {
		st, err := r.variant(v).RunDiagnosisStudy(w, string(v))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s study: %w", v, err)
		}
		out.Studies[v] = st
	}
	return out, nil
}

// PrintPrecision writes the Fig. 9 table.
func (c *ComparisonResult) PrintPrecision(w io.Writer) {
	c.printMetric(w, "Fig 9: diagnosis precision", "InvarNet-X ~9% above ARX; no-context far below", PRCounts.Precision)
}

// PrintRecall writes the Fig. 10 table.
func (c *ComparisonResult) PrintRecall(w io.Writer) {
	c.printMetric(w, "Fig 10: diagnosis recall", "InvarNet-X ~ ARX; no-context far below", PRCounts.Recall)
}

func (c *ComparisonResult) printMetric(w io.Writer, title, paper string, metric func(PRCounts) float64) {
	fmt.Fprintf(w, "%s (%s; faults rotate across the heterogeneous nodes)\n", title, c.Workload)
	fmt.Fprintf(w, "  %-10s %12s %12s %12s\n", "fault", VariantInvarNetX, VariantARX, VariantNoContext)
	for _, row := range c.Studies[VariantInvarNetX].Rows {
		fmt.Fprintf(w, "  %-10s", row.Fault)
		for _, v := range variants() {
			if r2 := c.Studies[v].Row(row.Fault); r2 != nil {
				fmt.Fprintf(w, " %12.2f", metric(r2.Counts))
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  averages: invarnet-x %.3f, arx %.3f, no-context %.3f (paper: %s)\n",
		c.Studies[VariantInvarNetX].average(metric), c.Studies[VariantARX].average(metric),
		c.Studies[VariantNoContext].average(metric), paper)
}

// PrintStudy writes a single study's per-fault rows (Figs. 7 and 8) and
// its averages beside paperNote.
func PrintStudy(w io.Writer, st *Study, paperNote string) {
	fmt.Fprintf(w, "Diagnosis study (%s, system=%s)\n", st.Workload, st.System)
	fmt.Fprintf(w, "  %-10s %9s %9s %9s\n", "fault", "precision", "recall", "detected")
	for _, row := range st.Rows {
		fmt.Fprintf(w, "  %-10s %9.2f %9.2f %6d/%d\n",
			row.Fault, row.Counts.Precision(), row.Counts.Recall(), row.Detected, row.Runs)
	}
	fmt.Fprintf(w, "  averages: precision %.3f, recall %.3f  (%s)\n", st.AveragePrecision(), st.AverageRecall(), paperNote)
}

// Print writes the pair's mutual confusion beside the paper's remark on it.
func (c *ConfusionPair) Print(w io.Writer) {
	fmt.Fprintf(w, "Signature conflict (%s): %s diagnosed as %s %d/%d; %s as %s %d/%d\n",
		c.Workload, c.A, c.B, c.AasB, c.Runs, c.B, c.A, c.BasA, c.Runs)
	fmt.Fprintln(w, `  (paper: "InvarNet-X mistakes Net-drop for Net-delay and vice versa sometimes")`)
}
