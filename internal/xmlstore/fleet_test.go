package xmlstore

import (
	"bytes"
	"path/filepath"
	"testing"
)

func fleetFixture() FleetFile {
	return FleetFile{
		Version: FormatVersion,
		Self:    "127.0.0.1:8080",
		NextSeq: 3,
		Vector: []FleetClock{
			{Origin: "127.0.0.1:8080", Seq: 2},
			{Origin: "127.0.0.1:9090", Seq: 5},
		},
		Records: []FleetRecord{
			{Origin: "127.0.0.1:8080", Seq: 1, Workload: "wordcount", Node: "10.0.0.1", Problem: "cpu-hog", Tuple: "0110"},
			{Origin: "127.0.0.1:8080", Seq: 2, Workload: "wordcount", Node: "10.0.0.1", Problem: "mem-hog", Tuple: "1010"},
			{Origin: "127.0.0.1:9090", Seq: 5, Workload: "sort", Node: "10.0.0.2", Problem: "disk-hog", Tuple: "0011"},
		},
	}
}

func TestFleetFileRoundTrip(t *testing.T) {
	f := fleetFixture()
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	var got FleetFile
	if err := load(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
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

func TestFleetFileAtomicSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet-state.xml")
	if err := SaveFile(path, fleetFixture()); err != nil {
		t.Fatal(err)
	}
	var got FleetFile
	if err := LoadFile(path, &got); err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFleetFileValidateRejectsDamage(t *testing.T) {
	cases := map[string]func(*FleetFile){
		"future version":     func(f *FleetFile) { f.Version = FormatVersion + 1 },
		"empty origin clock": func(f *FleetFile) { f.Vector[0].Origin = "" },
		"duplicate clock":    func(f *FleetFile) { f.Vector[1].Origin = f.Vector[0].Origin },
		"record no origin":   func(f *FleetFile) { f.Records[0].Origin = "" },
		"record seq zero":    func(f *FleetFile) { f.Records[0].Seq = 0 },
		"record past clock":  func(f *FleetFile) { f.Records[2].Seq = 9 },
		"unknown origin":     func(f *FleetFile) { f.Records[2].Origin = "127.0.0.1:7" },
		"bad tuple":          func(f *FleetFile) { f.Records[0].Tuple = "01x0" },
		"next-seq behind":    func(f *FleetFile) { f.NextSeq = 2 },
	}
	for name, mutate := range cases {
		f := fleetFixture()
		mutate(&f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted damaged file", name)
		}
	}
}
