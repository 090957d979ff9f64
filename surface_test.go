package invarnetx

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// closedPrefix is the guarded part of the module: nothing outside it can
// import a package under internal/, so an exported name there that no
// non-test file uses (invarnetx.go's re-exports, cmd/, examples/ and bench/
// all count) has no possible caller and is surface kept for nobody.
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
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
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
