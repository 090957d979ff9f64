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
	for _, v := range []int{FormatVersion + 1, FormatVersion + 7, -1} {
		doc := saved(t, ProfileFile{Version: v, Model: EncodeModel(sampleDetector())})
		if _, _, err := decodeProfile(doc); !errors.Is(err, ErrVersion) {
			t.Fatalf("profile version %d: err = %v, want ErrVersion", v, err)
		}
	}
}

func TestVersionLegacyAccepted(t *testing.T) {
	// A pre-versioning file decodes with Version 0 (attribute absent).
	legacy := `<?xml version="1.0"?>
<profile ip="a" type="b"><invariants><metrics>3</metrics>
<matrix><pair i="0" j="1" value="0.5"></pair></matrix></invariants></profile>`
	f, _, err := decodeProfile([]byte(legacy))
	if err != nil {
		t.Fatalf("legacy file rejected: %v", err)
	}
	if f.Version != 0 {
		t.Fatalf("legacy version = %d", f.Version)
	}
	set, err := f.Invariants.Decode()
	if err != nil {
		t.Fatalf("legacy set rejected: %v", err)
	}
	if set.Len() != 1 {
		t.Fatalf("legacy set len = %d", set.Len())
	}
}

// modelProfile is a profile file holding only a model, its ip naming the saver.
func modelProfile(ip string, consecutive int) ProfileFile {
	f := ProfileFile{Version: FormatVersion, IP: ip, Type: "w", Model: EncodeModel(sampleDetector())}
	f.Model.Consecutive = consecutive
	return f
}

func TestLoadFileTruncatedAndEmpty(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "profile.xml")
	if err := SaveFile(good, modelProfile("x", 3)); err != nil {
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
	if _, _, err := LoadProfile(trunc); err == nil {
		t.Fatal("truncated XML loaded without error")
	}
	empty := filepath.Join(dir, "empty.xml")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadProfile(empty); err == nil {
		t.Fatal("zero-byte file loaded without error")
	}
}

func TestSaveFileAtomicReplaceAndNoTempLeak(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "profile.xml")
	if err := SaveFile(path, modelProfile("first", 3)); err != nil {
		t.Fatal(err)
	}
	if err := SaveFile(path, modelProfile("second", 3)); err != nil {
		t.Fatal(err)
	}
	back, _, err := LoadProfile(path)
	if err != nil {
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
	path := filepath.Join(dir, "profile.xml")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := SaveFile(path, modelProfile("node", 3+i)); err != nil { // distinguishable payloads
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
	back, _, err := LoadProfile(path)
	if err != nil {
		t.Fatalf("file corrupt after concurrent saves: %v", err)
	}
	if _, err := back.Model.Decode(); err != nil {
		t.Fatalf("decode after concurrent saves: %v", err)
	}
	if back.Model.Consecutive < 3 || back.Model.Consecutive > 18 {
		t.Fatalf("payload mangled: %+v", back)
	}
}
