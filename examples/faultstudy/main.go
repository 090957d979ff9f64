// faultstudy runs a compact version of the paper's Fig. 8 evaluation as an
// application: train InvarNet-X on Wordcount, build the signature database
// from two investigated runs per fault, then detect and diagnose fresh
// occurrences of all 14 batch-applicable faults and report per-fault
// precision and recall.
//
// Run with: go run ./examples/faultstudy            (a few runs per fault)
//
//	go run ./examples/faultstudy -runs 40  (paper scale)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"invarnetx/internal/experiments"
	"invarnetx/internal/workload"
)

func main() {
	runs := flag.Int("runs", 8, "runs per fault (2 train the signatures)")
	seed := flag.Int64("seed", 1, "experiment seed")
	flag.Parse()

	opts := experiments.DefaultOptions()
	opts.Seed = *seed
	opts.RunsPerFault = *runs
	runner := experiments.NewRunner(opts)

	fmt.Printf("fault study on wordcount: %d runs per fault (%d for signatures)\n",
		opts.RunsPerFault, opts.SignatureRuns)
	start := time.Now()
	study, err := runner.RunDiagnosisStudy(workload.Wordcount, "invarnet-x")
	if err != nil {
		log.Fatal(err)
	}
	experiments.PrintStudy(os.Stdout, study, "paper Fig 8: avg precision 91.2%, recall 87.3%")
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))

	// The paper's qualitative findings to look for in the rows above:
	fmt.Println(`
expected shapes (paper §4.3):
  - Suspend detected and diagnosed near-perfectly (it violates almost
    every invariant at once);
  - Lock-R has the worst recall: each activation races a different code
    path, so its violations differ run to run;
  - Net-drop and Net-delay partially absorb each other's runs — the
    "signature conflict" between two faults that both strangle the
    network path.`)
}
