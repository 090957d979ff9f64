// Quickstart: the full InvarNet-X loop in one file.
//
//  1. Run a few normal Wordcount jobs on the simulated cluster and train
//     the per-node performance models (ARIMA on CPI) and MIC invariants.
//  2. Record the signature of an investigated problem (a CPU hog).
//  3. Run a new job with the same fault, detect the anomaly online from
//     the CPI stream, and diagnose the root cause.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"invarnetx/internal/core"
	"invarnetx/internal/experiments"
	"invarnetx/internal/faults"
	"invarnetx/internal/metrics"
	"invarnetx/internal/workload"
)

func main() {
	// An experiment runner wraps the simulated five-node Hadoop cluster
	// (one master + four heterogeneous slaves) with the paper's metric
	// collection: 26 collectl-style metrics plus per-process CPI, every
	// 10 simulated seconds.
	opts := experiments.DefaultOptions()
	opts.TrainRuns = 6
	opts.InputMB = 8 * 1024 // 8 GB input keeps this example quick
	runner := experiments.NewRunner(opts)

	// --- Offline part 1+2: performance models and invariants -----------
	fmt.Println("training on 6 normal wordcount runs ...")
	sys, runs, err := runner.TrainSystem(workload.Wordcount)
	if err != nil {
		log.Fatal(err)
	}
	ctx := core.Context{Workload: "wordcount", IP: "10.0.0.2"}
	det, err := sys.Detector(ctx)
	if err != nil {
		log.Fatal(err)
	}
	inv, err := sys.Invariants(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %s: CPI model %s, anomaly threshold %.4f\n", ctx, det.Model.Order, det.Upper)
	fmt.Printf("  %d observable likely invariants among %d metrics\n", inv.Len(), len(metrics.Names))
	fmt.Printf("  (a normal run takes ~%d ticks of 10 s)\n\n", runs[0].DurationTicks)

	// --- Offline part 3: signature base --------------------------------
	fmt.Println("recording the signature of an investigated CPU hog ...")
	if err := runner.Label(sys, runner.LabelRows("quickstart", workload.Wordcount, "cpu-hog")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  signature database now holds %d entries\n\n", sys.SignatureCount())

	// --- Online: detect and diagnose a fresh occurrence ----------------
	fmt.Println("injecting a fresh CPU hog and watching the CPI stream ...")
	out, err := runner.Observe(sys, experiments.Scenario{
		Study:    "quickstart",
		Workload: workload.Wordcount,
		Faults:   []faults.Kind{"cpu-hog"},
		Origin:   experiments.Alert, // diagnose from the monitor's alert
	})
	if err != nil {
		log.Fatal(err)
	}
	if out.Diagnosis == nil {
		log.Fatal("no anomaly detected — unexpected for a CPU hog")
	}
	fmt.Printf("  anomaly at tick %d (fault window started at tick %d)\n", out.AlertTick, out.Run.Window.Start)
	diag := out.Diagnosis
	fmt.Printf("  %d invariant violations\n", diag.Tuple.Ones())
	fmt.Println("  ranked causes:")
	for i, c := range diag.Causes {
		fmt.Printf("    %d. %s (similarity %.2f)\n", i+1, c.Problem, c.Score)
	}
	if diag.RootCause() == "cpu-hog" {
		fmt.Println("\ndiagnosis correct: cpu-hog")
	} else {
		fmt.Printf("\ndiagnosis: %s (expected cpu-hog)\n", diag.RootCause())
	}
}
