package core

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"invarnetx/internal/stats"
	"invarnetx/internal/xmlstore"
)

func TestCtxFileTokenRoundTrip(t *testing.T) {
	cases := []string{
		"", "wordcount", "10.0.0.2",
		"a/b", `a\b`, "glob*?", "colon:drive", "100%", "%2F", "a%b*c?d/e",
		"sort-2024", "..", ". ",
	}
	// LoadFrom never decodes a file name (it routes by file content), so the
	// encoding only has to be safe and collision-free: two contexts must
	// never share a store file.
	seen := make(map[string]string)
	for _, in := range cases {
		tok := ctxFileToken(in)
		if strings.ContainsAny(tok, `/\*?:`) {
			t.Fatalf("token %q for %q still contains reserved characters", tok, in)
		}
		if prev, dup := seen[tok]; dup {
			t.Fatalf("fields %q and %q collide on token %q", prev, in, tok)
		}
		seen[tok] = in
	}
	if tok := ctxFileToken(""); tok != "global" {
		t.Fatalf("empty field token = %q", tok)
	}
}

func TestCtxFileTokenKeepsPathsInsideStoreDir(t *testing.T) {
	ctx := Context{Workload: "../escape", IP: "10.0.0.2/.."}
	p := storePath("store", "model", ctx)
	if filepath.Dir(p) != "store" {
		t.Fatalf("hostile context escaped the store dir: %s", p)
	}
}

// corruptStore trains and saves a system, then damages selected files.
func corruptStore(t *testing.T) (dir string, ctx Context, s *System) {
	t.Helper()
	ctx = Context{Workload: "wordcount", IP: "10.0.0.2"}
	s = trainSystem(t, DefaultConfig(), ctx, 740)
	rng := stats.NewRNG(741)
	if err := s.BuildSignature(ctx, "fault-a", synthTrace(rng, 40, 8, map[int]bool{0: true})); err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ctx, s
}

func TestLoadFromSkipsTruncatedFile(t *testing.T) {
	dir, ctx, _ := corruptStore(t)
	mp := storePath(dir, "model", ctx)
	whole, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, whole[:len(whole)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatalf("recoverable corruption failed the whole load: %v", err)
	}
	if !rep.Partial() || len(rep.Skipped) != 1 || !strings.HasPrefix(rep.Skipped[0].Name, "model-") {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Invariants != 1 || rep.Signatures != 1 {
		t.Fatalf("intact artefacts not recovered: %+v", rep)
	}
	if _, err := s2.Detector(ctx); err == nil {
		t.Fatal("truncated model silently loaded")
	}
	if _, err := s2.Invariants(ctx); err != nil {
		t.Fatalf("intact invariants lost: %v", err)
	}
}

func TestLoadFromSkipsZeroByteFile(t *testing.T) {
	dir, ctx, _ := corruptStore(t)
	if err := os.WriteFile(storePath(dir, "invariants", ctx), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || rep.Models != 1 || rep.Signatures != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.String(), "skipped 1 corrupt") {
		t.Fatalf("report string = %q", rep.String())
	}
}

func TestLoadFromSkipsUnknownVersion(t *testing.T) {
	dir, ctx, _ := corruptStore(t)
	mp := storePath(dir, "model", ctx)
	whole, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(string(whole), `version="1"`, `version="99"`, 1)
	if future == string(whole) {
		t.Fatal("test setup: version attribute not found")
	}
	if err := os.WriteFile(mp, []byte(future), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Skipped) != 1 || !errors.Is(rep.Skipped[0].Err, xmlstore.ErrVersion) {
		t.Fatalf("report = %+v", rep)
	}
	if _, err := s2.Detector(ctx); err == nil {
		t.Fatal("future-versioned model silently loaded")
	}
}

// TestLoadFromSignatureFilesMergeByContextAllOrNothing: a signature file
// routes to the profile its file-level scope names, deduping against what is
// already loaded, and is all-or-nothing — a file with one malformed tuple, or
// with one entry of another context than its own scope, is skipped whole and
// none of its well-formed entries may land. A scope-less combined
// signatures.xml is not part of the layout and is not read.
func TestLoadFromSignatureFilesMergeByContextAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	a, b := Context{Workload: "wordcount", IP: "10.0.0.2"}, Context{Workload: "sort", IP: "10.0.0.3"}
	entry := func(ctx Context, problem, tuple string) xmlstore.SignatureEntry {
		return xmlstore.SignatureEntry{Tuple: tuple, Problem: problem, IP: ctx.IP, Type: ctx.Workload}
	}
	save := func(name string, scope Context, entries ...xmlstore.SignatureEntry) {
		t.Helper()
		f := xmlstore.SignatureFile{Version: xmlstore.FormatVersion, IP: scope.IP, Type: scope.Workload, Entries: entries}
		if err := xmlstore.SaveFile(filepath.Join(dir, name), f); err != nil {
			t.Fatal(err)
		}
	}
	save("signatures-a.xml", a,
		entry(a, "cpu-hog", "0110"), entry(a, "mem-hog", "1000"),
		entry(a, "net-drop", "0011"), entry(a, "cpu-hog", "0110")) // the last repeats the first
	save("signatures-b.xml", b, entry(b, "cpu-hog", "01"))
	save("signatures-bad.xml", b, entry(b, "disk-hog", "10"), entry(b, "net-delay", "1x"))
	save("signatures-mixed.xml", b, entry(b, "disk-hog", "10"), entry(a, "disk-hog", "1010"))
	save("signatures.xml", Context{}, entry(a, "legacy", "1111"))
	s := New(DefaultConfig())
	rep, err := s.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Signatures != 4 || len(rep.Skipped) != 2 ||
		rep.Skipped[0].Name != "signatures-bad.xml" || rep.Skipped[1].Name != "signatures-mixed.xml" {
		t.Fatalf("report = %+v, want 4 signatures, signatures-bad.xml and signatures-mixed.xml skipped", rep)
	}
	if got := s.Profile(a).SignatureCount(); got != 3 {
		t.Errorf("%v holds %d signatures, want 3", a, got)
	}
	if got := s.Profile(b).SignatureCount(); got != 1 {
		t.Errorf("%v holds %d signatures, want 1 (nothing from the skipped files)", b, got)
	}
}

func TestConcurrentSaveToLeavesParseableStore(t *testing.T) {
	ctx := Context{Workload: "wordcount", IP: "10.0.0.2"}
	s := trainSystem(t, DefaultConfig(), ctx, 750)
	dir := t.TempDir()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.SaveTo(dir); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial() {
		t.Fatalf("concurrent SaveTo left corrupt files: %v", rep)
	}
	if _, err := s2.Detector(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Invariants(ctx); err != nil {
		t.Fatal(err)
	}
}
