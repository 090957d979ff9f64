package experiments

import (
	"io"

	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

// Experiment is one entry of the paper's evaluation: the -run names it
// answers to, and Run, which computes its study on r and prints it to w.
// Figs. 9 and 10 are two views of one comparison: that entry answers to
// both and prints the views show selects; every other entry ignores show.
type Experiment struct {
	Names []string
	Run   func(r *Runner, w io.Writer, show func(name string) bool) error
}

// Catalog is every experiment with its arguments, in presentation order.
// cmd/experiments runs it, and studies.golden pins its rendering.
var Catalog = []Experiment{
	study("fig2", (*Runner).RunFig2),
	perWorkload("fig4", func(r *Runner, wl workload.Type) (*Fig4Result, error) { return r.RunFig4(wl, 25) },
		workload.Wordcount, workload.Sort),
	perWorkload("fig5", (*Runner).RunFig5, workload.Wordcount, workload.TPCDS),
	perWorkload("fig6", (*Runner).RunFig6, workload.Wordcount, workload.TPCDS),
	diagnosis("fig7", workload.TPCDS, "paper: avg precision 88.1%, recall 86%"),
	diagnosis("fig8", workload.Wordcount, "paper: avg precision 91.2%, recall 87.3%"),
	study("confusion", func(r *Runner) (*ConfusionPair, error) {
		return r.RunConfusion(workload.Wordcount, faults.NetDrop, faults.NetDelay)
	}),
	{[]string{"fig9", "fig10"}, func(r *Runner, w io.Writer, show func(string) bool) error {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			return err
		}
		if show("fig9") {
			cmp.PrintPrecision(w)
		}
		if show("fig10") {
			cmp.PrintRecall(w)
		}
		return nil
	}},
	study("table1", (*Runner).RunTable1),
	study("multifault", func(r *Runner) (*MultiFaultResult, error) { return r.RunMultiFault(workload.Wordcount, 6) }),
	study("growth", func(r *Runner) (*GrowthResult, error) { return r.RunSignatureGrowth(workload.Wordcount, 3) }),
	study("contrast", func(r *Runner) (*ContrastResult, error) { return r.RunContrast(workload.Wordcount, 4) }),
	study("crossnode", func(r *Runner) (*CrossStudy, error) { return r.RunCrossNodeStudy(workload.Sort) }),
	study("degradation", func(r *Runner) (*DegradationStudy, error) {
		return r.RunDegradationStudy(workload.Wordcount, faults.CPUHog, []float64{0, 0.5, 0.9}, 3)
	}),
	study("drift", func(r *Runner) (*DriftStudy, error) { return runDriftStudy(r.opts.Seed) }),
}

// study is the entry of one study whose result prints itself.
func study[T interface{ Print(io.Writer) }](name string, run func(*Runner) (T, error)) Experiment {
	return Experiment{[]string{name}, func(r *Runner, w io.Writer, _ func(string) bool) error {
		res, err := run(r)
		if err != nil {
			return err
		}
		res.Print(w)
		return nil
	}}
}

// perWorkload is the entry of a study printed once per workload, in order.
func perWorkload[T interface{ Print(io.Writer) }](name string, run func(*Runner, workload.Type) (T, error), wls ...workload.Type) Experiment {
	return Experiment{[]string{name}, func(r *Runner, w io.Writer, _ func(string) bool) error {
		for _, wl := range wls {
			res, err := run(r, wl)
			if err != nil {
				return err
			}
			res.Print(w)
		}
		return nil
	}}
}

// diagnosis is the entry of an InvarNet-X diagnosis study (Figs. 7, 8).
func diagnosis(name string, wl workload.Type, paperNote string) Experiment {
	return Experiment{[]string{name}, func(r *Runner, w io.Writer, _ func(string) bool) error {
		st, err := r.RunDiagnosisStudy(wl, string(VariantInvarNetX))
		if err != nil {
			return err
		}
		PrintStudy(w, st, paperNote)
		return nil
	}}
}
