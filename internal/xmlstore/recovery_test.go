package xmlstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestVersionUnknownRejected(t *testing.T) {
	f := EncodeModel(sampleDetector(), "x", "y")
	f.Version = FormatVersion + 1
	if _, err := f.Decode(); !errors.Is(err, ErrVersion) {
		t.Fatalf("future model version: err = %v, want ErrVersion", err)
	}
	inv := InvariantFile{Version: FormatVersion + 7, Metrics: 3}
	if _, err := inv.Decode(); !errors.Is(err, ErrVersion) {
		t.Fatalf("future invariant version: err = %v, want ErrVersion", err)
	}
	sig := SignatureFile{Version: -1}
	if _, err := sig.ParseEntries(); !errors.Is(err, ErrVersion) {
		t.Fatalf("negative signature version: err = %v, want ErrVersion", err)
	}
}

func TestVersionLegacyAccepted(t *testing.T) {
	// A pre-versioning file decodes with Version 0 (attribute absent).
	legacy := `<?xml version="1.0"?>
<invariants><ip>a</ip><type>b</type><metrics>3</metrics>
<matrix><pair i="0" j="1" value="0.5"></pair></matrix></invariants>`
	var f InvariantFile
	if err := load(strings.NewReader(legacy), &f); err != nil {
		t.Fatal(err)
	}
	if f.Version != 0 {
		t.Fatalf("legacy version = %d", f.Version)
	}
	set, err := f.Decode()
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if set.Len() != 1 {
		t.Fatalf("legacy set len = %d", set.Len())
	}
}

func TestLoadFileTruncatedAndEmpty(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "model.xml")
	if err := SaveFile(good, EncodeModel(sampleDetector(), "x", "y")); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.xml")
	if err := os.WriteFile(trunc, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var f ModelFile
	if err := LoadFile(trunc, &f); err == nil {
		t.Fatal("truncated XML loaded without error")
	}
	empty := filepath.Join(dir, "empty.xml")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := LoadFile(empty, &f); err == nil {
		t.Fatal("zero-byte file loaded without error")
	}
}

func TestSaveFileAtomicReplaceAndNoTempLeak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.xml")
	first := EncodeModel(sampleDetector(), "first", "w")
	if err := SaveFile(path, first); err != nil {
		t.Fatal(err)
	}
	second := EncodeModel(sampleDetector(), "second", "w")
	if err := SaveFile(path, second); err != nil {
		t.Fatal(err)
	}
	var back ModelFile
	if err := LoadFile(path, &back); err != nil {
		t.Fatal(err)
	}
	if back.IP != "second" {
		t.Fatalf("overwrite lost: IP = %q", back.IP)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temporary file leaked: %s", e.Name())
		}
	}
}

func TestSaveFileConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.xml")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := EncodeModel(sampleDetector(), "node", "w")
			f.Consecutive = 3 + i // distinguishable payloads
			if err := SaveFile(path, f); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Whatever writer won, the surviving file is complete and parseable.
	var back ModelFile
	if err := LoadFile(path, &back); err != nil {
		t.Fatalf("file corrupt after concurrent saves: %v", err)
	}
	if _, err := back.Decode(); err != nil {
		t.Fatalf("decode after concurrent saves: %v", err)
	}
	if back.Consecutive < 3 || back.Consecutive > 18 {
		t.Fatalf("payload mangled: %+v", back)
	}
}
