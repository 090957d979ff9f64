// Command bench is the repository's end-to-end benchmark and per-layer
// latency ledger: named workloads driven through an in-process invarnetd
// server on a real loopback socket (or the offline library for training and
// persistence), end-to-end metrics from an untraced pass, per-layer metrics
// from a traced pass plus direct layer replay, output checks on every run.
// BENCHMARK.json at the repository root names the workloads, metrics and
// regression bounds; README.md in this directory explains them.
//
//	bash bench/run.sh -seed 1                  every workload, untraced and traced
//	bash bench/run.sh -workload storm_clean -seed 7 -seconds 10 -trace 0
//	bash bench/run.sh -compare a.json b.json   gate one result file against another
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// untracedRuns is how many untraced runs, at consecutive seeds, a run of
// every workload makes per workload.
const untracedRuns = 5

func main() {
	if os.Getenv(kernelEnv) != "" {
		kernelMain()
		return
	}
	code, err := run()
	stopCalibrator()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}

// run is main without the exit. The exit code is 1 when an output check
// failed or -compare found a regression.
func run() (code int, err error) {
	var (
		workload = flag.String("workload", "", "workload to run (default: all of them)")
		seed     = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "measuring time per run, warm-up included")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		outDir   = flag.String("out", "bench/out", "directory for result and span files (append-only)")
		compare  = flag.Bool("compare", false, "compare two result files: -compare parent.json change.json")
	)
	flag.Parse()
	if *compare {
		return compareMain(flag.Args())
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return 0, err
	}
	d := time.Duration(*seconds * float64(time.Second))
	if *workload == "" {
		return runAll(*seed, d, *outDir)
	}
	sp, ok := specByName(*workload)
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", *workload)
	}
	file := newRunFile()
	rec, err := runOnce(file, sp, *seed, d, *trace != 0, *outDir)
	if err != nil {
		return 0, err
	}
	printRecord(os.Stdout, rec)
	if _, err := file.write(*outDir, sp.name); err != nil {
		return 0, err
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(last))
	if !rec.Result.Correct {
		return 1, nil
	}
	return 0, nil
}

// runOnce measures one workload once, writes its spans (traced runs) and
// appends the record to file.
func runOnce(file *runFile, sp spec, seed int64, d time.Duration, trace bool, outDir string) (runRecord, error) {
	t0 := time.Now()
	m, err := runWorkload(sp, seed, d, trace, outDir)
	if err != nil {
		return runRecord{}, fmt.Errorf("%s seed %d: %w", sp.name, seed, err)
	}
	rec := record(sp, seed, d.Seconds(), trace, time.Since(t0), m)
	if trace {
		rec.Spans = filepath.Join(outDir, fmt.Sprintf("%s.seed%d.spans.jsonl", file.stem(sp.name), seed))
		if err := writeSpans(rec.Spans, m.spans); err != nil {
			return runRecord{}, err
		}
	}
	file.Runs = append(file.Runs, rec)
	return rec, nil
}

// runAll runs every workload: untracedRuns untraced runs at consecutive
// seeds, then one traced run, printing every metric and the share-of-time
// table, and cross-checks the two ingest encodings.
func runAll(seed int64, d time.Duration, outDir string) (code int, err error) {
	file := newRunFile()
	traced := make(map[string]runRecord)
	for _, sp := range specs {
		for i := 0; i <= untracedRuns; i++ {
			trace := i == untracedRuns
			s := seed + int64(i)
			if trace {
				s = seed
			}
			rec, err := runOnce(file, sp, s, d, trace, outDir)
			if err != nil {
				return 0, err
			}
			printRecord(os.Stdout, rec)
			if !rec.Result.Correct {
				code = 1
			}
			if trace {
				traced[sp.name] = rec
			}
		}
	}
	if a, b := traced["ingest_binary"].CheckDigest, traced["ingest_json"].CheckDigest; a == "" || a != b {
		fmt.Printf("CHECK FAILED: ingest_binary and ingest_json, fed the same samples, end with different verdicts (%q vs %q)\n", a, b)
		code = 1
	}
	printShares(os.Stdout, traced)
	path, err := file.write(outDir, "all")
	if err != nil {
		return 0, err
	}
	fmt.Println("results:", path)
	return code, nil
}

func compareMain(args []string) (code int, err error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("usage: bench -compare parent.json change.json")
	}
	a, err := readRunFile(args[0])
	if err != nil {
		return 0, err
	}
	b, err := readRunFile(args[1])
	if err != nil {
		return 0, err
	}
	if bad := compareFiles(os.Stdout, a, b); bad > 0 {
		fmt.Printf("%d pairing(s) beyond their bound\n", bad)
		return 1, nil
	}
	return 0, nil
}
