// signaturedb shows the persistence side of InvarNet-X: training models for
// two different operation contexts, storing everything in the paper's XML
// formats (the ARIMA five-tuple, the invariant three-tuple and the
// signature four-tuple), reloading into a fresh process, and diagnosing
// with the reloaded state — including the context scoping rules.
//
// Run with: go run ./examples/signaturedb
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"invarnetx/internal/core"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "invarnetx-models-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	opts := experiments.DefaultOptions()
	opts.TrainRuns = 5
	opts.InputMB = 8 * 1024
	opts.SignatureRuns = 1 // one investigated run per problem is enough here
	runner := experiments.NewRunner(opts)

	// Train two contexts: wordcount and grep (the same nodes behave
	// differently under each workload, which is why the paper keys every
	// model by (workload type, node)).
	fmt.Println("training wordcount and grep contexts ...")
	sys, _, err := runner.TrainSystem(workload.Wordcount)
	if err != nil {
		log.Fatal(err)
	}
	grepSys, _, err := runner.TrainSystem(workload.Grep)
	if err != nil {
		log.Fatal(err)
	}
	// Record one investigated problem per context.
	if err := runner.Label(sys, runner.LabelRows("signaturedb", workload.Wordcount, "mem-hog")); err != nil {
		log.Fatal(err)
	}
	if err := runner.Label(grepSys, runner.LabelRows("signaturedb", workload.Grep, "disk-hog")); err != nil {
		log.Fatal(err)
	}

	// Persist both systems: one XML file per context (its model, invariants
	// and signatures), the second store in a subdirectory.
	if err := sys.SaveTo(dir); err != nil {
		log.Fatal(err)
	}
	if err := grepSys.SaveTo(filepath.Join(dir, "grep")); err != nil {
		log.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	fmt.Printf("saved %d files to %s:\n", len(entries), dir)
	for _, e := range entries {
		fmt.Printf("  %s\n", e.Name())
	}

	// A fresh process: load and diagnose.
	fmt.Println("\nreloading into a fresh system ...")
	fresh := core.New(core.DefaultConfig())
	rep, err := fresh.LoadFrom(dir)
	if err != nil {
		log.Fatal(err)
	}
	if rep.Partial() {
		log.Printf("warning: %s", rep)
	}
	fmt.Printf("  %d signatures restored\n", fresh.SignatureCount())

	// A fresh occurrence, diagnosed over its known fault window by the
	// reloaded system.
	out, err := runner.Observe(fresh, experiments.Scenario{
		Study:    "signaturedb",
		Workload: workload.Wordcount,
		Faults:   []faults.Kind{"mem-hog"},
		Index:    3,
		Origin:   experiments.Oracle,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  fresh mem-hog occurrence diagnosed as: %q\n", out.Diagnosis.RootCause())

	// Context scoping: the same tuple queried under the wrong workload
	// finds nothing — signatures do not leak across operation contexts.
	win, err := faultWindow(out.Run)
	if err != nil {
		log.Fatal(err)
	}
	wrong := core.Context{Workload: "sort", IP: out.Context.IP}
	if _, err := fresh.Diagnose(wrong, win); err != nil {
		fmt.Printf("  diagnosis under the wrong context fails as expected: %v\n", err)
	} else {
		fmt.Println("  (wrong-context diagnosis returned hints only)")
	}
}

// faultWindow slices the fault window out of the target trace, clamped to
// the run length (a short job can end inside the window).
func faultWindow(res *experiments.RunResult) (*metrics.Trace, error) {
	tr := res.TargetTrace()
	end := res.Window.End
	if end > tr.Len() {
		end = tr.Len()
	}
	return tr.Slice(res.Window.Start, end)
}
