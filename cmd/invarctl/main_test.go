package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"invarnetx/internal/core"
	"invarnetx/internal/experiments"
	"invarnetx/internal/workload"
	"invarnetx/internal/xmlstore"
)

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		out, _ := io.ReadAll(r)
		done <- out
	}()
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestAuditStaysInsideEachContext: audit reads each context's signature
// base on its own. Two hand-written profile files (signatures only, nothing
// trained) put on node B, under net-drop, the very tuple node A stores under
// net-delay; had the two bases been audited as one, that pair would be a
// conflict at similarity 1 and B's net-drop would be worst confused with A's
// net-delay. Every conflict and separability row must name only problems of
// the context it is tagged with.
func TestAuditStaysInsideEachContext(t *testing.T) {
	dir := t.TempDir()
	problems := map[string]map[string]string{ // context -> problem -> tuple
		"wordcount@10.0.0.2": {"net-drop": "111100", "net-delay": "111000", "mem-hog": "000011"},
		"wordcount@10.0.0.3": {"net-drop": "111000", "cpu-hog": "001111"},
	}
	for ctx, sigs := range problems {
		workload, ip, _ := strings.Cut(ctx, "@")
		f := xmlstore.ProfileFile{Version: xmlstore.FormatVersion, IP: ip, Type: workload}
		for problem, tuple := range sigs {
			f.Signatures = append(f.Signatures, xmlstore.SignatureEntry{Tuple: tuple, Problem: problem, IP: ip, Type: workload})
		}
		if err := xmlstore.SaveFile(filepath.Join(dir, "profile-"+workload+"-"+ip+".xml"), f); err != nil {
			t.Fatal(err)
		}
	}
	out := captureStdout(t, func() error { return cmdAudit([]string{"-models", dir, "-threshold", "0.5"}) })
	t.Logf("audit output:\n%s", out)
	if !strings.Contains(out, "auditing 5 signatures\n") {
		t.Errorf("audit did not count the 5 signatures of both files")
	}
	conflict := regexp.MustCompile(`^  (\S+) ~ (\S+) \(([0-9.]+), (\S+)\)$`)
	separability := regexp.MustCompile(`^  (\S+) +margin .* vs (\S*)\) \[(\S+)\]$`)
	var conflicts, rows int
	for _, line := range strings.Split(out, "\n") {
		var ctx string
		var named []string
		if m := conflict.FindStringSubmatch(line); m != nil {
			conflicts++
			ctx, named = m[4], []string{m[1], m[2]}
		} else if m := separability.FindStringSubmatch(line); m != nil {
			rows++
			ctx, named = m[3], []string{m[1]}
			if m[2] != "" {
				named = append(named, m[2])
			}
		} else {
			continue
		}
		for _, p := range named {
			if _, ok := problems[ctx][p]; !ok {
				t.Errorf("row %q names %s, which is not a problem of %s", line, p, ctx)
			}
		}
	}
	if conflicts != 1 || rows != 5 {
		t.Errorf("audit printed %d conflicts and %d separability rows, want A's one net pair and one row per problem of each context (5)", conflicts, rows)
	}
}

// TestAuditNamesEveryRival: a problem whose only rival is disjoint from it
// names that rival at 0.00, and a problem with no comparable rival says so;
// no separability row ends in an empty name.
func TestAuditNamesEveryRival(t *testing.T) {
	dir := t.TempDir()
	files := []xmlstore.ProfileFile{
		{Version: xmlstore.FormatVersion, IP: "10.0.0.2", Type: "wordcount", Signatures: []xmlstore.SignatureEntry{
			{Tuple: "1100", Problem: "cpu-hog", IP: "10.0.0.2", Type: "wordcount"},
			{Tuple: "0011", Problem: "mem-hog", IP: "10.0.0.2", Type: "wordcount"},
		}},
		{Version: xmlstore.FormatVersion, IP: "10.0.0.3", Type: "wordcount", Signatures: []xmlstore.SignatureEntry{
			{Tuple: "1100", Problem: "disk-hog", IP: "10.0.0.3", Type: "wordcount"},
		}},
	}
	for _, f := range files {
		if err := xmlstore.SaveFile(filepath.Join(dir, "profile-"+f.Type+"-"+f.IP+".xml"), f); err != nil {
			t.Fatal(err)
		}
	}
	out := captureStdout(t, func() error { return cmdAudit([]string{"-models", dir}) })
	t.Logf("audit output:\n%s", out)
	for _, want := range []string{
		"cpu-hog    margin +1.00 (cohesion 1.00, worst external 0.00 vs mem-hog) [wordcount@10.0.0.2]",
		"mem-hog    margin +1.00 (cohesion 1.00, worst external 0.00 vs cpu-hog) [wordcount@10.0.0.2]",
		"disk-hog   margin +1.00 (cohesion 1.00, no comparable problem) [wordcount@10.0.0.3]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output lacks %q", want)
		}
	}
	if strings.Contains(out, "vs )") {
		t.Error("a separability row names an empty rival")
	}
}

// TestSessionOnOneStore runs the typical session's subcommands on one
// temporary -models directory: train writes one profile file per node,
// signatures labels SignatureRuns runs of every fault the workload can
// suffer, and signatures -stats, profiles, lifecycle and diagnose read that
// same store.
func TestSessionOnOneStore(t *testing.T) {
	dir := t.TempDir()
	run := func(cmd func([]string) error, args ...string) string {
		t.Helper()
		return captureStdout(t, func() error { return cmd(append(args, "-models", dir)) })
	}
	store := func() *core.System {
		t.Helper()
		sys := core.New(core.DefaultConfig())
		if rep, err := sys.LoadFrom(dir); err != nil || rep.Partial() {
			t.Fatalf("loading the store: %v (%v)", err, rep)
		}
		return sys
	}
	opts := experiments.DefaultOptions()
	kinds := experiments.FaultKindsFor(workload.Wordcount)
	wantSigs := len(kinds) * opts.SignatureRuns

	run(cmdTrain)
	if files, _ := filepath.Glob(filepath.Join(dir, "profile-wordcount-*.xml")); len(files) != opts.Slaves {
		t.Errorf("train wrote %d profile files, want one per node (%d)", len(files), opts.Slaves)
	}
	if n := store().SignatureCount(); n != 0 {
		t.Errorf("train stored %d signatures, want 0", n)
	}

	run(cmdSignatures)
	sys := store()
	if n := sys.SignatureCount(); n != wantSigs {
		t.Errorf("signatures stored %d, want %d (%d faults x %d runs)", n, wantSigs, len(kinds), opts.SignatureRuns)
	}
	runs := make(map[string]int)
	for _, p := range sys.Profiles() {
		for _, e := range p.Signatures() {
			runs[e.Problem]++
		}
	}
	for _, k := range kinds {
		if runs[string(k)] != opts.SignatureRuns {
			t.Errorf("%s has %d signatures, want %d", k, runs[string(k)], opts.SignatureRuns)
		}
	}

	for _, c := range []struct {
		name string
		out  string
		want string
	}{
		{"signatures -stats", run(cmdSignatures, "-stats"), fmt.Sprintf(" %d signatures\n", wantSigs)},
		{"profiles", run(cmdProfiles), fmt.Sprintf("%d profiles:\n", opts.Slaves)},
		{"lifecycle", run(cmdLifecycle), "gen 1 "},
		{"diagnose", run(cmdDiagnose, "-fault", "cpu-hog"), "violation tuple: "},
	} {
		if !strings.Contains(c.out, c.want) {
			t.Errorf("%s printed %q, want a line holding %q", c.name, c.out, c.want)
		}
	}
}
