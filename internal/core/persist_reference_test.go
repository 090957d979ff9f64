package core

import (
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"invarnetx/internal/metrics"
	"invarnetx/internal/signature"
	"invarnetx/internal/stats"
	"invarnetx/internal/xmlstore"
)

// referenceLoadFrom is LoadFrom as it would read the store through
// encoding/xml's lexer and reflection alone: every profile file decoded into
// a ProfileFile, signatures included, then a tuple parse and a DB.Merge per
// entry. It is the oracle TestLoadFromEquivalence holds the scanner, the
// direct invariant and signature loops and the packed text merge to; what a
// decoded file installs is the product's own restoreProfile.
func referenceLoadFrom(s *System, dir string) (*LoadReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &LoadReport{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "profile-") || !strings.HasSuffix(name, ".xml") {
			continue
		}
		var f xmlstore.ProfileFile
		raw, err := os.Open(filepath.Join(dir, name))
		if err == nil {
			err = xml.NewDecoder(raw).Decode(&f)
			raw.Close()
		}
		var sigs *signature.DB
		if err == nil {
			sigs, err = parseSignatures(f)
		}
		if err == nil {
			err = s.restoreProfile(&f, sigs, rep)
		}
		if err != nil {
			rep.Skipped = append(rep.Skipped, SkippedFile{Name: name, Err: err})
		}
	}
	return rep, nil
}

// parseSignatures checks f's version and parses its signatures in file
// order into the signature base of the root's context, one DB.Merge each;
// one signature naming another context, or one malformed tuple, rejects
// them all.
func parseSignatures(f xmlstore.ProfileFile) (*signature.DB, error) {
	if f.Version < 0 || f.Version > xmlstore.FormatVersion {
		return nil, fmt.Errorf("%w: %d", xmlstore.ErrVersion, f.Version)
	}
	sigs := signature.NewDB(f.Type, f.IP, 0)
	for i, e := range f.Signatures {
		if e.IP != f.IP || e.Type != f.Type {
			return nil, fmt.Errorf("signature %d of %s@%s does not belong to the file's %s@%s", i, e.Type, e.IP, f.Type, f.IP)
		}
		t, err := signature.ParseTuple(e.Tuple)
		if err != nil {
			return nil, fmt.Errorf("signature %d: %w", i, err)
		}
		sigs.Merge(e.Problem, t)
	}
	return sigs, nil
}

// TestLoadFromEquivalence restores one saved four-context store — every
// section of the profile file, two damaged profile files among them —
// through LoadFrom and through the encoding/xml reference, and requires the
// two systems to be the same: report, signatures, every baseline, every
// detector field, every lifecycle edge.
func TestLoadFromEquivalence(t *testing.T) {
	useTuning(t, fastLifecycle)
	cfg := DefaultConfig()
	cfg.Lifecycle = true
	saved := New(cfg)
	var ctxs []Context
	for i, wl := range []string{"wordcount", "sort <&> \"quoted\""} {
		for j, ip := range []string{"10.0.0.2", "10.0.0.3"} {
			ctx := Context{Workload: wl, IP: ip}
			ctxs = append(ctxs, ctx)
			rng := stats.NewRNG(int64(900 + 10*i + j))
			var runs []*metrics.Trace
			var cpis [][]float64
			for r := 0; r < 3; r++ {
				tr := synthTrace(rng.Fork(int64(r)), traceLen, 8, nil)
				runs = append(runs, tr)
				cpis = append(cpis, tr.CPI)
			}
			if err := saved.TrainPerformanceModel(ctx, cpis); err != nil {
				t.Fatal(err)
			}
			if err := saved.TrainInvariants(ctx, runs); err != nil {
				t.Fatal(err)
			}
			for m := 0; m < 4; m++ {
				window := synthTrace(rng, 40, 8, map[int]bool{m: true})
				if err := saved.BuildSignature(ctx, fmt.Sprintf("fault-%d\r\n", m/2), window); err != nil {
					t.Fatal(err)
				}
				if _, err := saved.Diagnose(ctx, window); err != nil { // gives the lifecycle edges a history
					t.Fatal(err)
				}
			}
		}
	}
	dir := t.TempDir()
	if err := saved.SaveTo(dir); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(storePath(dir, ctxs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "profile-truncated.xml"), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	bad := xmlstore.ProfileFile{Version: xmlstore.FormatVersion, IP: ctxs[1].IP, Type: ctxs[1].Workload,
		Signatures: []xmlstore.SignatureEntry{{Tuple: "01x", Problem: "p", IP: ctxs[1].IP, Type: ctxs[1].Workload}}}
	if err := xmlstore.SaveFile(filepath.Join(dir, "profile-bad-tuple.xml"), bad); err != nil {
		t.Fatal(err)
	}

	got, want := New(cfg), New(cfg)
	gotRep, err := got.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := referenceLoadFrom(want, dir)
	if err != nil {
		t.Fatal(err)
	}
	if wantRep.Models != 4 || wantRep.Invariants != 4 || wantRep.Lifecycles != 4 || wantRep.Signatures != saved.SignatureCount() || len(wantRep.Skipped) != 2 {
		t.Fatalf("test setup: reference restored %v of %d signatures", wantRep, saved.SignatureCount())
	}
	names := func(r *LoadReport) (out []string) {
		for _, sk := range r.Skipped {
			out = append(out, sk.Name)
		}
		return out
	}
	if gotRep.Models != wantRep.Models || gotRep.Invariants != wantRep.Invariants || gotRep.Signatures != wantRep.Signatures ||
		gotRep.Lifecycles != wantRep.Lifecycles || !reflect.DeepEqual(names(gotRep), names(wantRep)) {
		t.Errorf("LoadFrom reports %v, the encoding/xml reference %v", gotRep, wantRep)
	}
	if got.SignatureCount() != want.SignatureCount() {
		t.Errorf("SignatureCount = %d, reference %d", got.SignatureCount(), want.SignatureCount())
	}
	for _, ctx := range ctxs {
		g, w := got.Profile(ctx), want.Profile(ctx)
		gd, err := g.Detector()
		if err != nil {
			t.Fatalf("%v: %v", ctx, err)
		}
		if wd, _ := w.Detector(); !reflect.DeepEqual(gd, wd) {
			t.Errorf("%v: detector %+v (model %+v), reference %+v (model %+v)", ctx, gd, gd.Model, wd, wd.Model)
		}
		gs, err := g.Invariants()
		if err != nil {
			t.Fatalf("%v: %v", ctx, err)
		}
		ws, _ := w.Invariants()
		if gs.M != ws.M || !reflect.DeepEqual(gs.Base, ws.Base) || !reflect.DeepEqual(gs.SortedPairs(), ws.SortedPairs()) {
			t.Errorf("%v: invariant set differs from the reference", ctx)
		}
		ge, we := g.SignatureSnapshot().Entries(), w.SignatureSnapshot().Entries()
		if len(ge) == 0 || !reflect.DeepEqual(ge, we) {
			t.Errorf("%v: %d signatures %v, reference %d %v", ctx, len(ge), ge, len(we), we)
		}
		gl := g.lifecycleSection(gs)
		if wl := w.lifecycleSection(ws); gl == nil || len(gl.Edges) == 0 || !reflect.DeepEqual(gl, wl) {
			t.Errorf("%v: lifecycle state %+v, reference %+v", ctx, gl, wl)
		}
	}
}

// TestLoadFromSkipsDeadArtefacts: a model that can never alert and an
// invariant set with a NaN baseline or a repeated pair used to load
// silently; they are corrupt files like any other, reported as such, and
// nothing else of their profile loads either.
func TestLoadFromSkipsDeadArtefacts(t *testing.T) {
	dir, ctx, other := corruptStore(t)
	damage := func(ctx Context, element, with string) {
		t.Helper()
		path := storePath(dir, ctx)
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := regexp.MustCompile("(?s)<"+element+">.*</"+element+">").ReplaceAll(whole, []byte(with))
		if string(edited) == string(whole) {
			t.Fatalf("test setup: no <%s> in %s", element, path)
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damage(ctx, "upper", "<upper>NaN</upper>")
	damage(other, "matrix", `<matrix><pair i="0" j="1" value="NaN"/><pair i="1" j="0" value="0.7"/></matrix>`)
	s2 := New(DefaultConfig())
	rep, err := s2.LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Models != 0 || rep.Invariants != 0 || rep.Signatures != 0 || len(rep.Skipped) != 2 {
		t.Fatalf("report = %v, want both profile files skipped whole", rep)
	}
	for _, sk := range rep.Skipped {
		if !strings.Contains(sk.Err.Error(), "core: decoding") {
			t.Errorf("%s skipped for %v, want a decoding error", sk.Name, sk.Err)
		}
	}
	if _, err := s2.Detector(ctx); err == nil {
		t.Error("a detector with a NaN threshold was installed")
	}
	if _, err := s2.Detector(other); err == nil {
		t.Error("the intact model of a profile with a NaN baseline was installed")
	}
}

// TestLoadReportCost: the report says what the restore read and how long it
// took, and String prints it — the boot line is where an operator sees it.
func TestLoadReportCost(t *testing.T) {
	dir, ctx, other := corruptStore(t)
	if err := os.WriteFile(filepath.Join(dir, "profile-empty.xml"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a store file"), 0o644); err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, c := range []Context{ctx, other} {
		info, err := os.Stat(storePath(dir, c))
		if err != nil {
			t.Fatal(err)
		}
		size += info.Size()
	}
	rep, err := New(DefaultConfig()).LoadFrom(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Files != 3 || rep.Bytes != size || rep.Elapsed <= 0 {
		t.Errorf("Files, Bytes, Elapsed = %d, %d, %v; want 3 (the skipped one counted), %d, > 0", rep.Files, rep.Bytes, rep.Elapsed, size)
	}
	for want, r := range map[string]*LoadReport{
		"16 models, 16 invariant sets, 4000 signatures from 16 files (1.1 MB) in 23 ms": {Models: 16, Invariants: 16, Signatures: 4000, Files: 16, Bytes: 1095406, Elapsed: 23456 * time.Microsecond},
		"0 signatures from 9 files (41.2 kB) in 2 ms; skipped 1 corrupt files (x.xml)":  {Files: 9, Bytes: 41234, Elapsed: 2 * time.Millisecond, Skipped: []SkippedFile{{Name: "x.xml"}}},
	} {
		if !strings.Contains(r.String(), want) {
			t.Errorf("String() = %q, want it to contain %q", r.String(), want)
		}
	}
}
