package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"invarnetx/internal/experiments"
)

// TestRobustnessRowsPrintTheGoldenBytes: the command's own selection loop,
// asked for -run degradation,drift at the golden's sizing (-seed 1 -train
// 4), prints exactly the bytes studies.golden holds for those two entries
// once its timing lines are dropped.
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
	selected, err := selection("degradation,drift")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runSelected(&out, experiments.NewRunner(opts), selected); err != nil {
		t.Fatal(err)
	}
	timing := regexp.MustCompile(`(?m)^\[(degradation|drift) completed in .*\]\n\n`)
	if n := len(timing.FindAll(out.Bytes(), -1)); n != 2 {
		t.Errorf("%d timing lines, want one per selected entry (2):\n%s", n, out.Bytes())
	}
	if got := timing.ReplaceAll(out.Bytes(), nil); !bytes.Equal(got, want) {
		t.Errorf("command printed\n%s\nstudies.golden holds\n%s", got, want)
	}
}

// TestSelectionRefusesUnknownNames: a -run name the catalog lacks is an
// error naming it, not a silent skip.
func TestSelectionRefusesUnknownNames(t *testing.T) {
	if _, err := selection("fig8,typo"); err == nil || !strings.Contains(err.Error(), `"typo"`) {
		t.Errorf("selection(fig8,typo) = %v, want an error naming typo", err)
	}
	want, err := selection("fig10, drift")
	if err != nil {
		t.Fatal(err)
	}
	if !want("fig10") || !want("drift") || want("fig9") {
		t.Error("selection(fig10, drift) does not select exactly fig10 and drift")
	}
}
