// Command experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment prints the rows or series the paper
// reports, plus the paper's qualitative expectation for comparison.
//
// Usage:
//
//	experiments -run all                 # everything (several minutes)
//	experiments -run fig8 -runs 40       # one experiment at paper scale
//	experiments -run fig2,fig4,table1    # a comma-separated subset
//
// Experiments: fig2 fig4 fig5 fig6 fig7 fig8 fig9 fig10 table1 multifault
// growth contrast crossnode confusion degradation drift. A name that is none
// of these is an error (exit 2), not a silent skip.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

// show prints a study's result, passing its error through.
func show[T interface{ Print(io.Writer) }](res T, err error) error {
	if err == nil {
		res.Print(os.Stdout)
	}
	return err
}

// showString is show for the studies that render through String.
func showString[T fmt.Stringer](res T, err error) error {
	if err == nil {
		fmt.Print(res)
	}
	return err
}

// perWorkload runs one study per workload, stopping at the first error.
func perWorkload(run func(workload.Type) error, ws ...workload.Type) error {
	for _, w := range ws {
		if err := run(w); err != nil {
			return err
		}
	}
	return nil
}

// asked holds the -run names; want reports whether one was selected.
var asked = map[string]bool{}

func want(name string) bool { return asked["all"] || asked[name] }

// table lists the experiments in presentation order. Most answer to one
// -run name; Figs. 9 and 10 are two views of one comparison, so their row
// answers to both and prints the views that were asked for.
var table = []struct {
	names []string
	run   func(r *experiments.Runner) error
}{
	{[]string{"fig2"}, func(r *experiments.Runner) error {
		return show(r.RunFig2())
	}},
	{[]string{"fig4"}, func(r *experiments.Runner) error {
		return perWorkload(func(w workload.Type) error { return show(r.RunFig4(w, 25)) }, workload.Wordcount, workload.Sort)
	}},
	{[]string{"fig5"}, func(r *experiments.Runner) error {
		return perWorkload(func(w workload.Type) error { return show(r.RunFig5(w)) }, workload.Wordcount, workload.TPCDS)
	}},
	{[]string{"fig6"}, func(r *experiments.Runner) error {
		return perWorkload(func(w workload.Type) error { return show(r.RunFig6(w)) }, workload.Wordcount, workload.TPCDS)
	}},
	{[]string{"fig7"}, func(r *experiments.Runner) error {
		st, err := r.RunDiagnosisStudy(workload.TPCDS, string(experiments.VariantInvarNetX))
		if err == nil {
			experiments.PrintStudy(os.Stdout, st, "paper: avg precision 88.1%, recall 86%")
		}
		return err
	}},
	{[]string{"fig8"}, func(r *experiments.Runner) error {
		st, err := r.RunDiagnosisStudy(workload.Wordcount, string(experiments.VariantInvarNetX))
		if err == nil {
			experiments.PrintStudy(os.Stdout, st, "paper: avg precision 91.2%, recall 87.3%")
		}
		return err
	}},
	{[]string{"fig9", "fig10"}, func(r *experiments.Runner) error {
		cmp, err := r.RunComparison(workload.Wordcount)
		if err != nil {
			return err
		}
		if want("fig9") {
			cmp.PrintPrecision(os.Stdout)
		}
		if want("fig10") {
			cmp.PrintRecall(os.Stdout)
		}
		return nil
	}},
	{[]string{"table1"}, func(r *experiments.Runner) error {
		return show(r.RunTable1())
	}},
	{[]string{"multifault"}, func(r *experiments.Runner) error {
		return show(r.RunMultiFault(workload.Wordcount, 6))
	}},
	{[]string{"growth"}, func(r *experiments.Runner) error {
		return show(r.RunSignatureGrowth(workload.Wordcount, 3))
	}},
	{[]string{"contrast"}, func(r *experiments.Runner) error {
		return show(r.RunContrast(workload.Wordcount, 4))
	}},
	{[]string{"crossnode"}, func(r *experiments.Runner) error {
		// Cross traffic changes the simulated telemetry, so the study gets
		// its own runner rather than contaminating the paper-scale arms.
		copts := r.Options()
		copts.CrossTraffic = true
		return show(experiments.NewRunner(copts).RunCrossNodeStudy(workload.Sort))
	}},
	{[]string{"confusion"}, func(r *experiments.Runner) error {
		cp, err := r.RunConfusion(workload.Wordcount, faults.NetDrop, faults.NetDelay)
		if err != nil {
			return err
		}
		fmt.Printf("Signature conflict (%s): net-drop diagnosed as net-delay %d/%d; net-delay as net-drop %d/%d\n",
			workload.Wordcount, cp.AasB, cp.Runs, cp.BasA, cp.Runs)
		fmt.Println("  (paper: \"InvarNet-X mistakes Net-drop for Net-delay and vice versa sometimes\")")
		return nil
	}},
	{[]string{"degradation"}, func(r *experiments.Runner) error {
		return showString(r.RunDegradationStudy(workload.Wordcount, faults.CPUHog, []float64{0, 0.5, 0.9}, 3))
	}},
	{[]string{"drift"}, func(r *experiments.Runner) error {
		return showString(experiments.RunDriftStudy(r.Options().Seed))
	}},
}

func main() {
	var known []string
	for _, e := range table {
		known = append(known, e.names...)
	}
	var (
		run   = flag.String("run", "all", "comma-separated experiments: "+strings.Join(known, ",")+",all")
		runs  = flag.Int("runs", 0, "runs per fault for the diagnosis studies (default 40, the paper's count)")
		seed  = flag.Int64("seed", 1, "experiment seed")
		train = flag.Int("train", 0, "normal training runs per context (default 8)")
	)
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	if *runs > 0 {
		opts.RunsPerFault = *runs
	}
	if *train > 0 {
		opts.TrainRuns = *train
	}
	r := experiments.NewRunner(opts)

	for _, name := range strings.Split(*run, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(known, name) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; choose from %s,all\n", name, strings.Join(known, ","))
			os.Exit(2)
		}
		asked[name] = true
	}

	for _, e := range table {
		if !slices.ContainsFunc(e.names, want) {
			continue
		}
		name := strings.Join(e.names, "/")
		start := time.Now()
		if err := e.run(r); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
