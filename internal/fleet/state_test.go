package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"invarnetx/internal/xmlstore"
)

func fleetFixture() stateFile {
	return stateFile{
		Version: xmlstore.FormatVersion,
		Self:    "127.0.0.1:8080",
		NextSeq: 3,
		Vector: []clock{
			{Origin: "127.0.0.1:8080", Seq: 2},
			{Origin: "127.0.0.1:9090", Seq: 5},
		},
		Records: []Record{
			{Origin: "127.0.0.1:8080", Seq: 1, Workload: "wordcount", Node: "10.0.0.1", Problem: "cpu-hog", Tuple: "0110"},
			{Origin: "127.0.0.1:8080", Seq: 2, Workload: "wordcount", Node: "10.0.0.1", Problem: "mem-hog", Tuple: "1010"},
			{Origin: "127.0.0.1:9090", Seq: 5, Workload: "sort", Node: "10.0.0.2", Problem: "disk-hog", Tuple: "0011"},
		},
	}
}

// loadState reads data through the store's scanner, as LoadState does.
func loadState(t *testing.T, data []byte) stateFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet-state.xml")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got stateFile
	if err := xmlstore.LoadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStateFileRoundTrip(t *testing.T) {
	f := fleetFixture()
	var buf bytes.Buffer
	if err := xmlstore.Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	got := loadState(t, buf.Bytes())
	if err := got.validate(); err != nil {
		t.Fatal(err)
	}
	if got.Self != f.Self || got.NextSeq != f.NextSeq {
		t.Errorf("identity round trip: got (%q, %d)", got.Self, got.NextSeq)
	}
	if len(got.Vector) != 2 || got.Vector[1].Seq != 5 {
		t.Errorf("vector round trip: %+v", got.Vector)
	}
	if len(got.Records) != 3 || got.Records[2].Problem != "disk-hog" {
		t.Errorf("records round trip: %+v", got.Records)
	}
}

func TestStateFileAtomicSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet-state.xml")
	if err := xmlstore.SaveFile(path, fleetFixture()); err != nil {
		t.Fatal(err)
	}
	var got stateFile
	if err := xmlstore.LoadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStateFileValidateRejectsDamage(t *testing.T) {
	cases := map[string]func(*stateFile){
		"future version":     func(f *stateFile) { f.Version = xmlstore.FormatVersion + 1 },
		"empty origin clock": func(f *stateFile) { f.Vector[0].Origin = "" },
		"duplicate clock":    func(f *stateFile) { f.Vector[1].Origin = f.Vector[0].Origin },
		"record no origin":   func(f *stateFile) { f.Records[0].Origin = "" },
		"record seq zero":    func(f *stateFile) { f.Records[0].Seq = 0 },
		"record past clock":  func(f *stateFile) { f.Records[2].Seq = 9 },
		"unknown origin":     func(f *stateFile) { f.Records[2].Origin = "127.0.0.1:7" },
		"bad tuple":          func(f *stateFile) { f.Records[0].Tuple = "01x0" },
		"next-seq behind":    func(f *stateFile) { f.NextSeq = 2 },
	}
	for name, mutate := range cases {
		f := fleetFixture()
		mutate(&f)
		if err := f.validate(); err == nil {
			t.Errorf("%s: Validate accepted damaged file", name)
		}
	}
}

// TestStateFileGolden holds the state file to the bytes an earlier build,
// whose file types lived in the store package, wrote: two peers' records,
// this daemon's own, an escaped problem name, and a next-seq more than one
// past the self clock (so a loader that derived it from the clock fails).
// LoadState must restore exactly that state and SaveState write the same
// bytes back.
func TestStateFileGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "fleet-state.xml"))
	if err != nil {
		t.Fatal(err)
	}
	const self = "10.1.0.1:7070"
	var installed []Record
	f := New(Config{
		Self:  self,
		Apply: func(r Record) bool { installed = append(installed, r); return true },
		Logf:  func(format string, args ...any) { t.Errorf("unexpected log: "+format, args...) },
	})
	f.LoadState(filepath.Join("testdata", "fleet-state.xml"))

	wantVector := Vector{self: 2, "10.1.0.2:7070": 2, "10.1.0.3:7070": 1}
	wantLog := []Record{
		{Origin: self, Seq: 1, Workload: "wordcount", Node: "10.0.0.2", Problem: "cpu-hog", Tuple: "0110"},
		{Origin: self, Seq: 2, Workload: "wordcount", Node: "10.0.0.2", Problem: "mem-hog", Tuple: "1010"},
		{Origin: "10.1.0.2:7070", Seq: 1, Workload: "sort", Node: "10.0.0.3", Problem: "disk-hog", Tuple: "0011"},
		{Origin: "10.1.0.2:7070", Seq: 2, Workload: "sort", Node: "10.0.0.3", Problem: "net-drop & <delay>", Tuple: "1100"},
		{Origin: "10.1.0.3:7070", Seq: 1, Workload: "grep", Node: "10.0.0.4", Problem: "lock-r", Tuple: "010101"},
	}
	if got := f.store.Vector(); !reflect.DeepEqual(got, wantVector) {
		t.Errorf("restored vector %v, want %v", got, wantVector)
	}
	if !reflect.DeepEqual(f.store.log, wantLog) {
		t.Errorf("restored log %+v, want %+v", f.store.log, wantLog)
	}
	if !reflect.DeepEqual(installed, wantLog) {
		t.Errorf("installed %+v, want every restored record", installed)
	}
	if got := f.store.NextSeq(); got != 5 {
		t.Errorf("restored next-seq %d, want 5", got)
	}

	out := filepath.Join(t.TempDir(), "state", "fleet-state.xml")
	if err := f.SaveState(out); err != nil {
		t.Fatal(err)
	}
	resaved, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved, golden) {
		t.Errorf("re-saved state differs from the golden:\n%s\nwant\n%s", resaved, golden)
	}
}

// TestLoadStateReportsALostState: a state file that cannot be restored is
// logged with its reason — the operator must be able to tell why a restart
// refetched the fleet — and leaves the store empty; a missing file is a cold
// boot and says nothing.
func TestLoadStateReportsALostState(t *testing.T) {
	const self = "127.0.0.1:8080"
	saved := func(mutate func(*stateFile)) func(string) error {
		return func(path string) error {
			f := fleetFixture()
			mutate(&f)
			return xmlstore.SaveFile(path, f)
		}
	}
	for _, tc := range []struct {
		name  string
		write func(path string) error // nil: no file
		want  string                  // "" for silence
	}{
		{"missing file", nil, ""},
		{"unreadable: a directory", func(path string) error { return os.Mkdir(path, 0o755) }, "is a directory"},
		{"unreadable: not XML", func(path string) error { return os.WriteFile(path, []byte("fleet"), 0o644) }, "outside the root element"},
		{"fails validation", saved(func(f *stateFile) { f.Records[2].Seq = 9 }), "exceeds its vector clock"},
		{"another daemon's", saved(func(f *stateFile) { f.Self = "127.0.0.1:9090"; f.NextSeq = 6 }), `saved by "127.0.0.1:9090"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet-state.xml")
			if tc.write != nil {
				if err := tc.write(path); err != nil {
					t.Fatal(err)
				}
			}
			var logs []string
			f := New(Config{Self: self, Logf: func(format string, args ...any) {
				logs = append(logs, fmt.Sprintf(format, args...))
			}})
			f.LoadState(path)
			switch {
			case tc.want == "" && len(logs) != 0:
				t.Errorf("logged %q, want silence", logs)
			case tc.want != "" && (len(logs) != 1 || !strings.Contains(logs[0], tc.want) || !strings.Contains(logs[0], path)):
				t.Errorf("logged %q, want one line naming %s and %q", logs, path, tc.want)
			}
			if f.store.Len() != 0 || len(f.store.Vector()) != 0 || f.store.NextSeq() != 1 {
				t.Errorf("a lost state left log %d, vector %v, next-seq %d", f.store.Len(), f.store.Vector(), f.store.NextSeq())
			}
		})
	}
}
