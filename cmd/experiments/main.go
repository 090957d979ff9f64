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
// The experiments are experiments.Catalog's entries, run in its order (-h
// lists their names). A name that is none of them is an error (exit 2), not
// a silent skip.
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
)

func main() {
	var (
		run   = flag.String("run", "all", "comma-separated experiments: "+strings.Join(known(), ",")+",all")
		runs  = flag.Int("runs", 0, "runs per fault for the diagnosis studies (default 40, the paper's count)")
		seed  = flag.Int64("seed", 1, "experiment seed")
		train = flag.Int("train", 0, "normal training runs per context (default 8)")
	)
	flag.Parse()

	want, err := selection(*run)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	opts := experiments.DefaultOptions()
	opts.Seed, opts.RunsPerFault, opts.TrainRuns = *seed, *runs, *train // NewRunner defaults a 0
	if err := runSelected(os.Stdout, experiments.NewRunner(opts), want); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// known lists every -run name of the catalog, in its order.
func known() []string {
	var names []string
	for _, e := range experiments.Catalog {
		names = append(names, e.Names...)
	}
	return names
}

// selection parses a comma-separated -run list into the predicate that
// reports whether a name was asked for, refusing a name the catalog lacks.
func selection(list string) (want func(name string) bool, err error) {
	asked := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(known(), name) {
			return nil, fmt.Errorf("unknown experiment %q; choose from %s,all", name, strings.Join(known(), ","))
		}
		asked[name] = true
	}
	return func(name string) bool { return asked["all"] || asked[name] }, nil
}

// runSelected runs, in catalog order, every experiment want selects, each
// followed by its timing line.
func runSelected(w io.Writer, r *experiments.Runner, want func(string) bool) error {
	for _, e := range experiments.Catalog {
		if !slices.ContainsFunc(e.Names, want) {
			continue
		}
		name := strings.Join(e.Names, "/")
		start := time.Now()
		if err := e.Run(r, w, want); err != nil {
			return fmt.Errorf("%s failed: %w", name, err)
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
