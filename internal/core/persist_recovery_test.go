package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/xmlstore"
)

// TestCtxFileTokenRoundTrip: LoadFrom never decodes a file name (it routes
// by file content), so the encoding only has to be safe and injective over
// whole contexts: two contexts must never share a store file. The field
// separator and the empty field are where a per-field check misses it —
// {"a-b", "c"} and {"a", "b-c"}, or {"", ""} and {"global", "global"}.
func TestCtxFileTokenRoundTrip(t *testing.T) {
	fields := []string{
		"", "global", "wordcount", "10.0.0.2",
		"a/b", `a\b`, "glob*?", "colon:drive", "100%", "%2F", "%2D", "a%b*c?d/e",
		"sort-2024", "-", "--", "a-", "-b", "a-b", "b-c", "a", "c", "..", ". ",
	}
	seen := make(map[string]Context)
	for _, wl := range fields {
		for _, ip := range fields {
			ctx := Context{Workload: wl, IP: ip}
			name := filepath.Base(storePath("store", ctx))
			if strings.ContainsAny(strings.TrimPrefix(name, "profile-"), `/\*?:`) || strings.Count(name, "-") != 2 {
				t.Fatalf("file name %q for %v still contains reserved characters or separators", name, ctx)
			}
			if prev, dup := seen[name]; dup {
				t.Fatalf("contexts %v and %v collide on file %q", prev, ctx, name)
			}
			seen[name] = ctx
		}
	}
}

func TestCtxFileTokenKeepsPathsInsideStoreDir(t *testing.T) {
	ctx := Context{Workload: "../escape", IP: "10.0.0.2/.."}
	p := storePath("store", ctx)
	if filepath.Dir(p) != "store" {
		t.Fatalf("hostile context escaped the store dir: %s", p)
	}
}

// TestSaveToKeepsEveryContextsFile: contexts whose fields differ only in
// where a '-' sits, or in an empty field against the word "global", each
// keep their own file, so every profile comes back after a restart; and the
// store holds one file per profile and nothing else.
func TestSaveToKeepsEveryContextsFile(t *testing.T) {
	ctxs := []Context{{Workload: "a-b", IP: "c"}, {Workload: "a", IP: "b-c"}, {}, {Workload: "global", IP: "global"}}
	s := New(DefaultConfig())
	for i, ctx := range ctxs {
		tuple := signature.Tuple{i&1 == 1, i&2 == 2, true}
		s.Profile(ctx).mergeSignatures(signature.Entry{Tuple: tuple, Problem: fmt.Sprintf("p%d", i), IP: ctx.IP, Workload: ctx.Workload})
	}
	dir := t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(ctxs) {
		t.Fatalf("store holds %v, want one file per profile (%d)", files, len(ctxs))
	}
	for _, f := range files {
		if !strings.HasPrefix(filepath.Base(f), "profile-") {
			t.Errorf("store holds %s, not a profile file", f)
		}
	}
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil || rep.Partial() || rep.Files != len(ctxs) {
		t.Fatalf("LoadFrom: %v (report %v)", err, rep)
	}
	for i, ctx := range ctxs {
		got := s2.Profile(ctx).Signatures()
		if len(got) != 1 || got[0].Problem != fmt.Sprintf("p%d", i) {
			t.Errorf("%v restored %v, want its own signature p%d", ctx, got, i)
		}
	}
}

// TestLoadFromReportsRetiredLayout: the per-artefact files of the layout
// before profile files are listed as skipped, so an upgraded daemon does not
// boot cold without a word, and nothing in them is read. Files of no store
// layout are not the store's business: fleet-state.xml, what a federated
// daemon left beside its profiles before the fleet was removed, is neither
// read nor deleted.
func TestLoadFromReportsRetiredLayout(t *testing.T) {
	dir, ctx, _ := corruptStore(t)
	whole, err := os.ReadFile(storePath(dir, ctx))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(storePath(dir, ctx)); err != nil {
		t.Fatal(err)
	}
	retired := []string{"invariants-wordcount-10.0.0.2.xml", "lifecycle-x.xml", "model-wordcount-10.0.0.2.xml", "signatures-wordcount-10.0.0.2.xml"}
	for _, name := range append(retired, "fleet-state.xml", "signatures.xml") {
		if err := os.WriteFile(filepath.Join(dir, name), whole, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := DefaultConfig()
	cfg.Lifecycle = true
	s2 := New(cfg)
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	var skipped []string
	for _, sk := range rep.Skipped {
		skipped = append(skipped, sk.Name)
		if !strings.Contains(sk.Err.Error(), "predates this build") {
			t.Errorf("%s skipped for %v, want the layout named", sk.Name, sk.Err)
		}
	}
	if !reflect.DeepEqual(skipped, retired) || rep.Models != 1 || rep.Signatures != 1 {
		t.Fatalf("report = %v, want the other profile loaded and %v skipped", rep, retired)
	}
	if _, err := s2.Detector(ctx); err == nil {
		t.Error("a retired store file was read")
	}
}

// corruptStore trains and saves a two-profile system, each profile with a
// model, invariants and one signature, for the tests to damage.
func corruptStore(t *testing.T) (dir string, ctx, other Context) {
	t.Helper()
	ctx, other = Context{Workload: "wordcount", IP: "10.0.0.2"}, Context{Workload: "wordcount", IP: "10.0.0.3"}
	s := trainSystem(t, DefaultConfig(), ctx, 740)
	rng := stats.NewRNG(741)
	var runs []*metrics.Trace
	var cpis [][]float64
	for i := 0; i < 6; i++ {
		tr := synthTrace(rng.Fork(int64(i)), traceLen, 8, nil)
		runs, cpis = append(runs, tr), append(cpis, tr.CPI)
	}
	if err := s.TrainPerformanceModel(other, cpis); err != nil {
		t.Fatal(err)
	}
	if err := s.TrainInvariants(other, runs); err != nil {
		t.Fatal(err)
	}
	for _, c := range []Context{ctx, other} {
		if err := s.BuildSignature(c, "fault-a", synthTrace(rng, 40, 8, map[int]bool{0: true})); err != nil {
			t.Fatal(err)
		}
	}
	dir = t.TempDir()
	if err := s.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ctx, other
}

// A damaged profile file is skipped whole: none of its artefacts load, and
// every other profile still does.
func TestLoadFromSkipsTruncatedFile(t *testing.T) {
	dir, ctx, other := corruptStore(t)
	mp := storePath(dir, ctx)
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
	if !rep.Partial() || len(rep.Skipped) != 1 || rep.Skipped[0].Name != filepath.Base(mp) {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Models != 1 || rep.Invariants != 1 || rep.Signatures != 1 {
		t.Fatalf("intact profile not recovered: %+v", rep)
	}
	if _, err := s2.Detector(ctx); err == nil {
		t.Fatal("truncated model silently loaded")
	}
	if _, err := s2.Invariants(ctx); err == nil {
		t.Fatal("half a damaged profile loaded")
	}
	if _, err := s2.Invariants(other); err != nil {
		t.Fatalf("intact invariants lost: %v", err)
	}
}

func TestLoadFromSkipsZeroByteFile(t *testing.T) {
	dir, ctx, _ := corruptStore(t)
	if err := os.WriteFile(storePath(dir, ctx), nil, 0o644); err != nil {
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
	mp := storePath(dir, ctx)
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

// TestLoadFromSignatureFilesMergeByContextAllOrNothing: a profile file's
// signatures route to the profile its scope names, deduping against what is
// already loaded, and are all-or-nothing — a file with one malformed tuple,
// or with one entry of another context than its own scope, is skipped whole
// and none of its well-formed entries may land. A scope-less combined
// signatures.xml is not part of the layout and is not read.
func TestLoadFromSignatureFilesMergeByContextAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	a, b := Context{Workload: "wordcount", IP: "10.0.0.2"}, Context{Workload: "sort", IP: "10.0.0.3"}
	entry := func(ctx Context, problem, tuple string) xmlstore.SignatureEntry {
		return xmlstore.SignatureEntry{Tuple: tuple, Problem: problem, IP: ctx.IP, Type: ctx.Workload}
	}
	save := func(name string, scope Context, entries ...xmlstore.SignatureEntry) {
		t.Helper()
		f := xmlstore.ProfileFile{Version: xmlstore.FormatVersion, IP: scope.IP, Type: scope.Workload, Signatures: entries}
		if err := xmlstore.SaveFile(filepath.Join(dir, name), f); err != nil {
			t.Fatal(err)
		}
	}
	save("profile-a.xml", a,
		entry(a, "cpu-hog", "0110"), entry(a, "mem-hog", "1000"),
		entry(a, "net-drop", "0011"), entry(a, "cpu-hog", "0110")) // the last repeats the first
	save("profile-b.xml", b, entry(b, "cpu-hog", "01"))
	save("profile-bad.xml", b, entry(b, "disk-hog", "10"), entry(b, "net-delay", "1x"))
	save("profile-mixed.xml", b, entry(b, "disk-hog", "10"), entry(a, "disk-hog", "1010"))
	save("signatures.xml", Context{}, entry(a, "legacy", "1111"))
	s := New(DefaultConfig())
	rep, err := s.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Signatures != 4 || len(rep.Skipped) != 2 ||
		rep.Skipped[0].Name != "profile-bad.xml" || rep.Skipped[1].Name != "profile-mixed.xml" {
		t.Fatalf("report = %+v, want 4 signatures, profile-bad.xml and profile-mixed.xml skipped", rep)
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
