package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line: exactly these
// keys. An untraced run carries every end-to-end metric, a traced run every
// per-layer metric.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one run as the result files keep it: the printed result plus
// what produced it. EndToEnd is recorded for traced runs too (their final
// line omits it), from the shorter untraced pass they make.
type runRecord struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Trace    bool                   `json:"trace"`
	Seconds  float64                `json:"seconds"` // requested measuring time
	WallS    float64                `json:"wallS"`   // whole run, set-up included
	Result   result                 `json:"result"`
	EndToEnd map[string]metricValue `json:"endToEnd"`
	// Raw holds the timing end-to-end metrics as the wall clock read them,
	// before calibration (see estimate.go).
	Raw map[string]float64 `json:"rawWallClock,omitempty"`
	// Top1 is a storm run's diagnosis accuracy. It depends on the seed alone,
	// so -compare holds two runs at one seed to the same figure.
	Top1 *top1 `json:"top1,omitempty"`
	// CheckDigest fingerprints the verdicts an ingest workload ends with;
	// ingest_json and ingest_binary at one seed must agree on it.
	CheckDigest string   `json:"checkDigest,omitempty"`
	Checks      []string `json:"checkFailures,omitempty"`
	Notes       []string `json:"notes,omitempty"`
	Spans       string   `json:"spansFile,omitempty"`
}

// top1 counts the seed's held-out fault windows and those whose diagnosed
// root cause is the injected fault. Every served verdict must equal the
// library's for its window, so this is the accuracy of what was served.
type top1 struct {
	Hits    int `json:"hits"`
	Windows int `json:"windows"`
}

func (a top1) share() float64 {
	if a.Windows == 0 {
		return 0
	}
	return float64(a.Hits) / float64(a.Windows)
}

// runFile is one invocation's result file. Files are never rewritten: every
// invocation creates a new one under the output directory.
type runFile struct {
	Commit     string      `json:"commit"`
	Modified   bool        `json:"modified"` // built from a tree with local changes
	GoVersion  string      `json:"goVersion"`
	NumCPU     int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Clients    int         `json:"clients"`
	Started    time.Time   `json:"started"`
	Runs       []runRecord `json:"runs"`
}

func newRunFile() *runFile {
	f := &runFile{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients:    clients,
		Started:    time.Now().UTC(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				f.Commit = s.Value
			case "vcs.modified":
				f.Modified = s.Value == "true"
			}
		}
	}
	return f
}

// stem names this invocation's files: start time and pid make it unique, so
// the output directory is append-only.
func (f *runFile) stem(label string) string {
	return fmt.Sprintf("%s-%s-%d", f.Started.Format("20060102T150405.000"), label, os.Getpid())
}

// write stores f as <dir>/<stem>.json and returns the path.
func (f *runFile) write(dir, label string) (string, error) {
	path := filepath.Join(dir, f.stem(label)+".json")
	buf, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	if _, err := out.Write(append(buf, '\n')); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}

func readRunFile(path string) (*runFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values picks the named metrics out of m in defs order.
func values(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// record turns a measurement into its run record. A run is correct when
// every output check held and no operation failed or was refused: the
// workloads are sized so that none does.
func record(sp spec, seed int64, seconds float64, trace bool, wall time.Duration, m *measurement) runRecord {
	rec := runRecord{
		Workload: sp.name, Seed: seed, Trace: trace, Seconds: seconds, WallS: wall.Seconds(),
		EndToEnd:    values(endToEnd, m.e2e),
		Raw:         m.raw,
		Top1:        m.top1,
		CheckDigest: m.digest,
		Checks:      m.checks,
		Notes:       m.notes,
		Result: result{
			Correct:   len(m.checks) == 0 && m.failed == 0,
			Attempted: m.attempted,
			Failed:    m.failed,
		},
	}
	if trace {
		rec.Result.Metrics = values(perLayer, m.layer)
	} else {
		rec.Result.Metrics = rec.EndToEnd
	}
	return rec
}

// printRecord prints every metric of the run by name with its unit, then the
// notes and any check failures.
func printRecord(w io.Writer, rec runRecord) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v: %.1f s measured, %.1f s in all\n", rec.Workload, rec.Seed, rec.Trace, rec.Seconds, rec.WallS)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-38s %14.4f %s", d.Name, rec.EndToEnd[d.Name].Value, d.Unit)
		if raw, ok := rec.Raw[d.Name]; ok {
			fmt.Fprintf(w, "   (wall clock: %.4f)", raw)
		}
		fmt.Fprintln(w)
	}
	if rec.Trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, rec.Result.Metrics[d.Name].Value, d.Unit)
		}
	}
	if rec.CheckDigest != "" {
		fmt.Fprintf(w, "  # check-window verdict digest %s\n", rec.CheckDigest)
	}
	for _, n := range rec.Notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	if rec.Result.Failed > 0 {
		fmt.Fprintf(w, "  CHECK FAILED: %d of %d requests failed or were refused\n", rec.Result.Failed, rec.Result.Attempted)
	}
	for _, c := range rec.Checks {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", c)
	}
}
