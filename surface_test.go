package invarnetx

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"invarnetx/internal/arima"
	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/mic"
	"invarnetx/internal/server"
)

// closedPrefix is the guarded part of the module: nothing outside it can
// import a package under internal/, so an exported name there that no
// non-test file uses (cmd/, examples/ and bench/ count; invarnetx.go does
// not — a re-export is not a use) has no possible caller and is surface kept
// for nobody. An exported function needs more: a caller in another package,
// where the root facade's wrappers count, since TestFacadeIsTheExamplesAPI
// ties each of them to an example. A function only its own package calls is
// an unexported one.
const closedPrefix = "invarnetx/internal/"

// testOracles are the exported names kept although only tests reference
// them, each with its reason: an oracle that tests of *other* packages
// compare the product against cannot live in one package's _test.go. The
// list can only shrink — an entry that gains a non-test caller (or is
// deleted) fails the test until it is dropped — and holds at most
// maxTestOracles names.
var testOracles = map[string]string{
	"invarnetx/internal/signature.BestProblem":               "reference reduction (best match per problem over MatchMasked's full list) that core and experiments tests hold DB.Rank to",
	"invarnetx/internal/invariant.ComputeMaskedMatrixScored": "dense masked fill (every pair of a degraded window) that core and experiments tests hold the sparse edge path and pair-major training to",
	"invarnetx/internal/signature.ParseTuple":                "reference tuple-text parser that the xmlstore and core restore tests hold the direct signature loop and DB.MergeText to",
}

const maxTestOracles = 5

// benchOnly are the exported names whose only non-test references are in
// bench/, each with the bench/ reference that keeps it, as "bench/<file>
// l. <line>". The end-to-end benchmark changes only with the benchmark, so
// these are shims the product would otherwise delete. The list can only
// shrink: an entry that gains a product caller or loses its bench/ caller
// fails the test until it is dropped, a cited line must still reference the
// name, and the list holds at most maxBenchOnly names, so no new bench-only
// shim can be added.
var benchOnly = map[string]string{
	"invarnetx/internal/core.System.MergeSignature":       "bench/system.go l. 64 seeds each context with synthetic signatures through it",
	"invarnetx/internal/invariant.ComputeMatrixScored":    "bench/layers.go l. 467 fills the dense matrices the selection probe selects from",
	"invarnetx/internal/invariant.Select":                 "bench/layers.go l. 477 times selection over matrices scored in full",
	"invarnetx/internal/invariant.Set.ComputeEdgesScored": "bench/layers.go l. 439 times the clean edge pass over a prepared batch",
	"invarnetx/internal/mic.NewBatchPrepared":             "bench/layers.go l. 317 builds a batch from a slider's preparations",
	"invarnetx/internal/mic.Batch.ScreenLow":              "bench/layers.go l. 346 times the prescreen bound against the exact score",
	"invarnetx/internal/mic.NewSlider":                    "bench/layers.go l. 293 replays the retired per-metric sliding window",
	"invarnetx/internal/mic.Slider.AppendBatch":           "bench/layers.go l. 294 feeds the replayed slider",
	"invarnetx/internal/mic.Slider.Prepared":              "bench/layers.go l. 310 snapshots the replayed slider",
	"invarnetx/internal/signature.DB.MatchMasked":         "bench/layers.go l. 576 times the full match list with a measure argument",
	"invarnetx/internal/signature.Entry.Fingerprint":      "bench/gen.go l. 341 keys the synthetic signature corpus",
}

const maxBenchOnly = 11

// calledByStdlib are method names the standard library calls through its own
// interfaces (error, fmt.Stringer, errors.Unwrap, http.Handler), so a
// declaration needs no caller in this module.
var calledByStdlib = map[string]bool{"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true}

// TestClosedPackagesExportOnlyWhatIsCalled parses every non-test file of the
// module (and of bench/, a caller in its own module) and fails on an exported
// function, type or method of an exported type declared under internal/ that
// nothing references, or that only bench/ references and benchOnly does not
// list, or on an exported package-level function that no file of another
// package references (bench/ and invarnetx.go count). Syntax only, so
// deliberately lenient: a function or type counts as referenced by any bare
// identifier of its name inside its package or by pkg.Name in a file
// importing it; a method by any selector of its name anywhere.
func TestClosedPackagesExportOnlyWhatIsCalled(t *testing.T) {
	type decl struct {
		key    string // "import/path.Name", or the bare name for a method
		id     string // "import/path.Name", or "import/path.Type.Name" for a method
		method bool
		fn     bool // a package-level function
		pos    token.Position
	}
	// refs are the references to one name: whether a file outside bench/
	// makes one, and where bench/ makes its own ("bench/<file> l. <line>").
	type refs struct {
		product bool
		bench   []string
	}
	var decls []decl
	fset := token.NewFileSet()
	named := map[string]*refs{}    // "import/path.Name" referenced as a package-level name
	called := map[string]*refs{}   // "import/path.Name" referenced from another package, invarnetx.go included
	selected := map[string]*refs{} // Name selected off some operand
	note := func(m map[string]*refs, key string, pos token.Pos) {
		r := m[key]
		if r == nil {
			r = &refs{}
			m[key] = r
		}
		at := fset.Position(pos)
		if dir, _ := filepath.Split(at.Filename); dir != "bench/" {
			r.product = true
			return
		}
		r.bench = append(r.bench, fmt.Sprintf("%s l. %d", filepath.ToSlash(at.Filename), at.Line))
	}

	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || filepath.Dir(p) == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		facade := filepath.Dir(p) == "."
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		own := path.Join("invarnetx", filepath.ToSlash(filepath.Dir(p)))
		imports := map[string]string{}
		for _, im := range file.Imports {
			ip := strings.Trim(im.Path.Value, `"`)
			alias := path.Base(ip)
			if im.Name != nil {
				alias = im.Name.Name
			}
			imports[alias] = ip
		}
		// Identifiers that are not uses: declared names, receivers, and the
		// Sel half of a selector (recorded as named or selected instead).
		notUse := map[*ast.Ident]bool{}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				notUse[d.Name] = true
				exported := strings.HasPrefix(own, closedPrefix) && d.Name.IsExported()
				if d.Recv == nil {
					if exported {
						key := own + "." + d.Name.Name
						decls = append(decls, decl{key: key, id: key, fn: true, pos: fset.Position(d.Pos())})
					}
					continue
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						notUse[id] = true
						if exported && id.IsExported() {
							decls = append(decls, decl{key: d.Name.Name, id: own + "." + id.Name + "." + d.Name.Name, method: true, pos: fset.Position(d.Pos())})
						}
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						notUse[ts.Name] = true
						if strings.HasPrefix(own, closedPrefix) && ts.Name.IsExported() {
							key := own + "." + ts.Name.Name
							decls = append(decls, decl{key: key, id: key, pos: fset.Position(ts.Pos())})
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if facade { // a call through a facade wrapper, and nothing else
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
						note(called, imports[x.Name]+"."+sel.Sel.Name, sel.Sel.Pos())
					}
				}
				return true
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUse[n.Sel] = true
				note(selected, n.Sel.Name, n.Sel.Pos())
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					note(named, imports[x.Name]+"."+n.Sel.Name, n.Sel.Pos())
					note(called, imports[x.Name]+"."+n.Sel.Name, n.Sel.Pos())
				}
			case *ast.Ident:
				if !notUse[n] {
					note(named, own+"."+n.Name, n.Pos())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(testOracles) > maxTestOracles {
		t.Errorf("testOracles holds %d names, at most %d are allowed", len(testOracles), maxTestOracles)
	}
	if len(benchOnly) > maxBenchOnly {
		t.Errorf("benchOnly holds %d names, at most %d are allowed: bench/ may not keep a new shim alive", len(benchOnly), maxBenchOnly)
	}
	orphaned := map[string]bool{}
	benchKept := map[string][]string{} // bench-only name → its bench/ references
	var orphans, shims, local []string
	for _, d := range decls {
		r := named[d.key]
		if d.method {
			r = selected[d.key]
			if calledByStdlib[d.key] {
				continue
			}
		}
		switch {
		case r == nil:
			orphaned[d.id] = true
			if testOracles[d.id] == "" {
				orphans = append(orphans, d.pos.String()+": "+d.id)
			}
		case !r.product:
			benchKept[d.id] = r.bench
			if benchOnly[d.id] == "" {
				shims = append(shims, fmt.Sprintf("%s: %s (%s)", d.pos, d.id, strings.Join(r.bench, ", ")))
			}
		case d.fn && called[d.key] == nil:
			local = append(local, d.pos.String()+": "+d.id)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported from a package nothing outside the module can import, and no non-test file references it", o)
	}
	sort.Strings(local)
	for _, l := range local {
		t.Errorf("%s is a function only its own package calls: unexport it", l)
	}
	sort.Strings(shims)
	for _, s := range shims {
		t.Errorf("%s is referenced by no non-test file outside bench/: delete it, or give it a product caller", s)
	}
	for name, reason := range benchOnly {
		at, ok := benchKept[name]
		if !ok {
			t.Errorf("%s is listed in benchOnly but is no longer an exported name only bench/ references: drop the entry", name)
			continue
		}
		cited := false
		for _, a := range at {
			cited = cited || strings.Contains(reason, a)
		}
		if !cited {
			t.Errorf("benchOnly[%q] = %q cites none of its bench/ references (%s)", name, reason, strings.Join(at, ", "))
		}
	}
	for name, reason := range testOracles {
		if reason == "" {
			t.Errorf("testOracles[%q] gives no reason", name)
		}
		if !orphaned[name] {
			t.Errorf("%s is listed in testOracles but is no longer an exported name without a non-test caller: drop the entry", name)
		}
	}
}

// facadeExempt names the one declaration group of invarnetx.go kept whole
// although the examples use only some of it: the five evaluated workloads.
const facadeExempt = "Wordcount"

// TestFacadeIsTheExamplesAPI fails on an exported name declared in
// invarnetx.go that neither examples/ nor example_test.go references. A type
// named in the signature of a referenced function counts as referenced (a
// caller holds its values), and the group declaring facadeExempt is kept
// whole. Everything else the module offers stays under internal/, reached
// through System and ExperimentRunner.
func TestFacadeIsTheExamplesAPI(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "invarnetx.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	files := []string{"example_test.go"}
	err = filepath.WalkDir("examples", func(p string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasSuffix(p, ".go") {
			files = append(files, p)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range files {
		file, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		alias := ""
		for _, im := range file.Imports {
			if strings.Trim(im.Path.Value, `"`) == "invarnetx" {
				alias = "invarnetx"
				if im.Name != nil {
					alias = im.Name.Name
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && alias != "" && x.Name == alias {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var names []*ast.Ident
	exempt := map[string]bool{}
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name)
			if used[d.Name.Name] {
				ast.Inspect(d.Type, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						used[id.Name] = true
					}
					return true
				})
			}
		case *ast.GenDecl:
			var group []string
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						names = append(names, id)
						group = append(group, id.Name)
					}
				}
			}
			for _, n := range group {
				if n == facadeExempt {
					for _, m := range group {
						exempt[m] = true
					}
				}
			}
		}
	}
	if !exempt[facadeExempt] {
		t.Errorf("invarnetx.go declares no group holding %s: update facadeExempt", facadeExempt)
	}
	for _, id := range names {
		if id.IsExported() && !used[id.Name] && !exempt[id.Name] {
			t.Errorf("%s: invarnetx.%s is referenced by no example", fset.Position(id.Pos()), id.Name)
		}
	}
}

// configKnobs is the ledger of the configuration structs' fields, each with
// the reason it is settable: a product caller sets it in two ways, or bench/
// (which changes only with the benchmark) reads it. What the paper fixes and
// no caller varies is a constant in its package instead, so a zero Config is
// the paper's.
var configKnobs = map[reflect.Type]map[string]string{
	reflect.TypeOf(core.Config{}): {
		"Epsilon":        "bench/ reads it: the clean and masked edge probes judge violations with it",
		"Tau":            "bench/ reads it: the selection probe runs invariant.Select with it",
		"Assoc":          "mic.MIC by default; the ARX arm of Figs. 9/10 sets arx.Association",
		"AssocCacheSize": "0 (the default bound) for the daemon and the studies; Table 1 sets -1 to time uncached stages, bench/ sets 64",
		"Similarity":     "bench/ reads it, and Jaccard is its only valid value",
		"Lifecycle":      "off by default; invarnetd -lifecycle, invarctl lifecycle and the drift study's lifecycle arm set it",
	},
	reflect.TypeOf(detect.Config{}): {
		"Rule":   "beta-max by default; Fig. 6 trains one detector per rule",
		"Select": "bench/ reads it: the autofit probe passes it to arima.AutoFit",
	},
	reflect.TypeOf(arima.SelectConfig{}): {
		"MaxP": "bench/ passes it to arima.AutoFit inside detect.Config.Select",
		"MaxQ": "bench/ passes it to arima.AutoFit inside detect.Config.Select",
	},
	// The grid exponent and the superclump bound are constants of package
	// mic; the empty type stays only because bench/ passes it to NewBatch
	// and NewSlider.
	reflect.TypeOf(mic.Config{}): {},
	reflect.TypeOf(server.Config{}): {
		"Core":      "invarnetd builds it from core.DefaultConfig and -lifecycle; bench/ sets its own core.Config",
		"StoreDir":  "invarnetd -models; the smoke run sets a temporary directory",
		"Workers":   "invarnetd -workers (0 = GOMAXPROCS)",
		"QueueCap":  "invarnetd -queue; bench/system.go sets it per workload",
		"WindowCap": "invarnetd -window; bench/system.go sets it per workload",
		"ReportCap": "invarnetd -reports; bench/system.go sets 256",
	},
}

// TestConfigKnobsAreJustified fails when a configuration struct gains a
// field without a configKnobs entry, or loses one whose entry stays: a new
// knob justifies itself in review.
func TestConfigKnobsAreJustified(t *testing.T) {
	for typ, knobs := range configKnobs {
		fields := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			fields[name] = true
			if knobs[name] == "" {
				t.Errorf("%s.%s has no configKnobs entry: name the callers that set it in two ways, or make it a constant", typ, name)
			}
		}
		for name := range knobs {
			if !fields[name] {
				t.Errorf("configKnobs lists %s, which %s no longer has: drop the entry", name, typ)
			}
		}
	}
}
