package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"

	"invarnetx/internal/faults"
	"invarnetx/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/studies.golden from the current code")

// tinyComparison is the Figs. 9/10 comparison at tinyOptions, shared by the
// shape test and the golden file: it is three full studies (one of them on
// ARX) and by far the most expensive thing this package's tests run.
var tinyComparison = sync.OnceValues(func() (*ComparisonResult, error) {
	return NewRunner(tinyOptions()).RunComparison(workload.Wordcount)
})

// renderStudies prints every deterministic study at a reduced scale, in the
// formats cmd/experiments prints them (Table 1 is excluded: it prints
// wall-clock durations). The sections are independent, so they render side by
// side and are written out in order.
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

// renderSeed prints one seed's studies.
func renderSeed(w io.Writer, seed int64) error {
	opts := DefaultOptions()
	opts.Seed = seed
	opts.RunsPerFault = 6
	opts.TrainRuns = 4
	r := NewRunner(opts)
	fmt.Fprintf(w, "=== seed %d ===\n", seed)

	fig2, err := r.RunFig2()
	if err != nil {
		return err
	}
	fig2.Print(w)
	for _, wl := range []workload.Type{workload.Wordcount, workload.Sort} {
		res, err := r.RunFig4(wl, 25)
		if err != nil {
			return err
		}
		res.Print(w)
	}
	for _, wl := range []workload.Type{workload.Wordcount, workload.TPCDS} {
		res, err := r.RunFig5(wl)
		if err != nil {
			return err
		}
		res.Print(w)
	}
	for _, wl := range []workload.Type{workload.Wordcount, workload.TPCDS} {
		res, err := r.RunFig6(wl)
		if err != nil {
			return err
		}
		res.Print(w)
	}
	fig7, err := r.RunDiagnosisStudy(workload.TPCDS, string(VariantInvarNetX))
	if err != nil {
		return err
	}
	PrintStudy(w, fig7, "fig7")
	fig8, err := r.RunDiagnosisStudy(workload.Wordcount, string(VariantInvarNetX))
	if err != nil {
		return err
	}
	PrintStudy(w, fig8, "fig8")
	cp, err := r.RunConfusion(workload.Wordcount, faults.NetDrop, faults.NetDelay)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "confusion %s/%s: %d %d of %d\n", cp.A, cp.B, cp.AasB, cp.BasA, cp.Runs)
	mf, err := r.RunMultiFault(workload.Wordcount, 6)
	if err != nil {
		return err
	}
	mf.Print(w)
	gr, err := r.RunSignatureGrowth(workload.Wordcount, 3)
	if err != nil {
		return err
	}
	gr.Print(w)
	ct, err := r.RunContrast(workload.Wordcount, 4)
	if err != nil {
		return err
	}
	ct.Print(w)
	cs, err := r.RunCrossNodeStudy(workload.Sort)
	if err != nil {
		return err
	}
	cs.Print(w)
	dg, err := r.RunDegradationStudy(workload.Wordcount, faults.CPUHog, []float64{0, 0.5, 0.9}, 3)
	if err != nil {
		return err
	}
	fmt.Fprint(w, dg)
	ds, err := RunDriftStudy(seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, ds)
	return nil
}

// TestStudiesGolden is the refactor's proof: the rendered output of every
// study must match, byte for byte, the file captured before the studies were
// re-expressed as scenario rows. Regenerate with -update only for a change
// that is meant to move a number.
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
