package main

import (
	"testing"
	"time"
)

// Every workload end to end, traced (which makes an untraced pass too): the
// output checks must hold, every declared metric must be present, and the
// end-to-end ones must be non-zero. -short keeps each timed part under a
// second; the numbers mean nothing at that length.
func TestSmokeEveryWorkload(t *testing.T) {
	d := 2 * time.Second
	if testing.Short() {
		d = 800 * time.Millisecond
	}
	digests := make(map[string]string)
	for _, sp := range specs {
		sp := sp
		if testing.Short() && sp.gen.synthSigs > 500 {
			sp.gen.synthSigs = 500 // a fifth of the time, the same code paths
		}
		t.Run(sp.name, func(t *testing.T) {
			m, err := runWorkload(sp, 3, d, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range m.checks {
				t.Errorf("output check: %s", c)
			}
			if m.attempted < 1 || m.failed != 0 {
				t.Errorf("attempted %d, failed %d", m.attempted, m.failed)
			}
			for _, def := range endToEnd {
				if v, ok := m.e2e[def.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v", def.Name, v)
				}
			}
			for name := range m.layer {
				found := false
				for _, def := range perLayer {
					found = found || def.Name == name
				}
				if !found {
					t.Errorf("undeclared per-layer metric %s", name)
				}
			}
			if len(m.spans) == 0 {
				t.Errorf("traced run recorded no spans")
			}
			if m.digest != "" {
				digests[sp.name] = m.digest
			}
		})
	}
	if a, b := digests["ingest_binary"], digests["ingest_json"]; a == "" || a != b {
		t.Errorf("ingest_binary and ingest_json end with different verdicts: %q vs %q", a, b)
	}
}
