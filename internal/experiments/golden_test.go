package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"testing"

	"invarnetx/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/studies.golden from the current code")

// tinyComparison is the Figs. 9/10 comparison at tinyOptions, shared by the
// shape test and the golden file: it is three full studies (one of them on
// ARX) and by far the most expensive thing this package's tests run.
var tinyComparison = sync.OnceValues(func() (*ComparisonResult, error) {
	return NewRunner(tinyOptions()).RunComparison(workload.Wordcount)
})

// renderStudies prints the command's catalog at a reduced scale, exactly as
// cmd/experiments prints it less the timing lines, for two seeds. Table 1 is
// excluded (it prints wall-clock durations), and so is the Figs. 9/10 entry:
// that comparison is rendered once, from the shared tinyComparison, with
// the entry's own PrintPrecision and PrintRecall. The sections are
// independent, so they render side by side and are written out in order.
func renderStudies(w io.Writer) error {
	sections := []func(io.Writer) error{
		func(w io.Writer) error { return renderSeed(w, 1) },
		func(w io.Writer) error { return renderSeed(w, 2) },
		func(w io.Writer) error {
			fmt.Fprintln(w, "=== comparison (tinyOptions) ===")
			cmp, err := tinyComparison()
			if err != nil {
				return err
			}
			cmp.PrintPrecision(w)
			cmp.PrintRecall(w)
			return nil
		},
	}
	bufs := make([]bytes.Buffer, len(sections))
	errs := make([]error, len(sections))
	var wg sync.WaitGroup
	for i, render := range sections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = render(&bufs[i])
		}()
	}
	wg.Wait()
	for i := range sections {
		if errs[i] != nil {
			return errs[i]
		}
		w.Write(bufs[i].Bytes())
	}
	return nil
}

// renderSeed prints one seed's pass over the catalog at the sizing of
// cmd/experiments -seed <seed> -train 4 -runs 6.
func renderSeed(w io.Writer, seed int64) error {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.RunsPerFault = 6
	opts.TrainRuns = 4
	r := NewRunner(opts)
	fmt.Fprintf(w, "=== seed %d ===\n", seed)
	all := func(string) bool { return true }
	for _, e := range Catalog {
		if slices.Contains(e.Names, "table1") || slices.Contains(e.Names, "fig9") {
			continue
		}
		if err := e.Run(r, w, all); err != nil {
			return err
		}
	}
	return nil
}

// TestStudiesGolden is the refactor's proof: the catalog cmd/experiments
// runs must render, byte for byte, the file whose numbers were captured
// before the studies were re-expressed as scenario rows, under the command's
// own labels. Regenerate with -update only for a change that is meant to
// move a number.
func TestStudiesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("every study end to end")
	}
	var buf bytes.Buffer
	if err := renderStudies(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/studies.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("studies diverge from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("studies diverge from %s in length: got %d lines, want %d", path, len(gl), len(wl))
	}
}
