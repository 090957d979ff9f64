package main

import (
	"bytes"
	"io"
	"os"
	"slices"
	"testing"

	"invarnetx/internal/experiments"
)

// TestRobustnessRowsPrintTheGoldenBytes: the degradation and drift rows call
// their studies with the arguments TestStudiesGolden uses, so at the golden's
// sizing (-seed 1 -train 4) the command prints exactly the bytes
// studies.golden holds for them.
func TestRobustnessRowsPrintTheGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile("../../internal/experiments/testdata/studies.golden")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(golden, []byte("telemetry degradation:"))
	end := bytes.Index(golden, []byte("=== seed 2 ==="))
	if start < 0 || end < start {
		t.Fatal("studies.golden has no seed-1 degradation..drift block")
	}
	want := golden[start:end]

	opts := experiments.DefaultOptions()
	opts.Seed, opts.TrainRuns = 1, 4
	r := experiments.NewRunner(opts)

	stdout := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw
	defer func() { os.Stdout = stdout }()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(pr)
		got <- b
	}()
	for _, e := range table {
		if slices.Contains(e.names, "degradation") || slices.Contains(e.names, "drift") {
			if err := e.run(r); err != nil {
				t.Error(err)
			}
		}
	}
	pw.Close()
	if out := <-got; !bytes.Equal(out, want) {
		t.Errorf("rows printed\n%s\nstudies.golden holds\n%s", out, want)
	}
}
