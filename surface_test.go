package invarnetx

import (
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
)

// closedPrefix is the guarded part of the module: nothing outside it can
// import a package under internal/, so an exported name there that no
// non-test file uses (cmd/, examples/ and bench/ count; invarnetx.go does
// not — a re-export is not a use) has no possible caller and is surface kept
// for nobody.
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

// calledByStdlib are method names the standard library calls through its own
// interfaces (error, fmt.Stringer, errors.Unwrap, http.Handler), so a
// declaration needs no caller in this module.
var calledByStdlib = map[string]bool{"Error": true, "String": true, "Unwrap": true, "ServeHTTP": true}

// TestClosedPackagesExportOnlyWhatIsCalled parses every non-test file of the
// module (and of bench/, a caller in its own module) and fails on an exported
// function, type or method of an exported type declared under internal/ that
// nothing references. Syntax only, so deliberately lenient: a function
// or type counts as referenced by any bare identifier of its name inside its
// package or by pkg.Name in a file importing it; a method by any selector of
// its name anywhere.
func TestClosedPackagesExportOnlyWhatIsCalled(t *testing.T) {
	type decl struct {
		key    string // "import/path.Name", or the bare name for a method
		method bool
		pos    token.Position
	}
	var decls []decl
	named := map[string]bool{}    // "import/path.Name" referenced as a package-level name
	selected := map[string]bool{} // Name selected off some operand

	fset := token.NewFileSet()
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") || filepath.Dir(p) == "." {
			return nil
		}
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
						decls = append(decls, decl{key: own + "." + d.Name.Name, pos: fset.Position(d.Pos())})
					}
					continue
				}
				ast.Inspect(d.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						notUse[id] = true
						if exported && id.IsExported() {
							decls = append(decls, decl{key: d.Name.Name, method: true, pos: fset.Position(d.Pos())})
						}
					}
					return true
				})
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						notUse[ts.Name] = true
						if strings.HasPrefix(own, closedPrefix) && ts.Name.IsExported() {
							decls = append(decls, decl{key: own + "." + ts.Name.Name, pos: fset.Position(ts.Pos())})
						}
					}
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUse[n.Sel] = true
				selected[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.Ident:
				if !notUse[n] {
					named[own+"."+n.Name] = true
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
	orphaned := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		used := named[d.key]
		if d.method {
			used = selected[d.key] || calledByStdlib[d.key]
		}
		if used {
			continue
		}
		orphaned[d.key] = true
		if testOracles[d.key] == "" {
			orphans = append(orphans, d.pos.String()+": "+d.key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported from a package nothing outside the module can import, and no non-test file references it", o)
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
		"Similarity":     "bench/ reads it: the signature probes rank with the system's measure",
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
