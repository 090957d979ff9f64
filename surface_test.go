package invarnetx

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"invarnetx/internal/arima"
	"invarnetx/internal/core"
	"invarnetx/internal/detect"
	"invarnetx/internal/mic"
	"invarnetx/internal/server"
)

// The closed-package rule guards the module's internal/ packages: nothing
// outside the module can import them, so an exported name there that no
// non-test file uses (cmd/, examples/ and bench/ count) has no possible
// caller and is surface kept for nobody. An exported function needs more: a
// non-test caller in another package. A function only its own package calls
// is an unexported one.

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
	"invarnetx/internal/invariant.Matrix.Get":                "reads the dense oracle's scores: core and experiments tests compare trained and judged pairs against it",
	"invarnetx/internal/invariant.Matrix.Known":              "reads the dense oracle's mask: core and experiments tests compare unknown pairs against it",
}

const maxTestOracles = 5

// benchOnly are the exported names whose only non-test references are in
// bench/, each with the bench/ reference that keeps it, as "bench/<file>
// l. <line>". The end-to-end benchmark changes only with the benchmark, so
// these are shims the product would otherwise delete. The list can only
// shrink: an entry that gains a product caller or loses its bench/ caller
// fails the test until it is dropped, each cited line must hold a resolved
// reference to the name, and the list holds at most maxBenchOnly names, so
// no new bench-only shim can be added.
var benchOnly = map[string]string{
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

const maxBenchOnly = 10

// module is one tree of packages type-checked from source: every non-test
// file of every package under its import path, with each identifier's use
// resolved in info.
type module struct {
	path  string
	dir   string
	fset  *token.FileSet
	info  *types.Info
	pkgs  []*types.Package // in the order they were checked
	files map[*types.Package][]*ast.File
}

// sourceImporter checks a module's package from its directory and hands
// everything else (the standard library) to the go/importer source importer.
// It checks each package once, so every module's files resolve to the same
// objects.
type sourceImporter struct {
	fset    *token.FileSet
	std     types.Importer
	modules []*module
	checked map[string]*types.Package
}

func (im *sourceImporter) Import(path string) (*types.Package, error) {
	if p := im.checked[path]; p != nil {
		return p, nil
	}
	for _, m := range im.modules {
		if rel, ok := strings.CutPrefix(path, m.path); ok && (rel == "" || rel[0] == '/') {
			return im.check(m, path, filepath.Join(m.dir, filepath.FromSlash(rel)))
		}
	}
	return im.std.Import(path)
}

func (im *sourceImporter) check(m *module, path, dir string) (*types.Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(im.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	im.checked[path] = p
	m.pkgs = append(m.pkgs, p)
	m.files[p] = files
	return p, nil
}

// loadAll checks every package in m's directory tree, skipping hidden and
// testdata directories as the go command does.
func (im *sourceImporter) loadAll(m *module) error {
	return filepath.WalkDir(m.dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != m.dir && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(m.dir, p)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		_, err = im.Import(path)
		var none *build.NoGoError
		if errors.As(err, &none) {
			return nil
		}
		return err
	})
}

var surfaces struct {
	once               sync.Once
	invarnetx, fixture *module
	stdIfaces          []*types.Interface
	err                error
}

// loadSurfaces type-checks this module, bench/ included, and the fixture
// module in testdata/surface, once per test binary. Under -race it skips the
// caller instead: the load exercises nothing concurrent, and instrumented
// go/types takes six times as long (18.6 s against 3.1 s on 2 cores).
func loadSurfaces(t *testing.T) (invarnetx, fixture *module, stdIfaces []*types.Interface) {
	t.Helper()
	if raceDetector {
		t.Skip("the surface ledger is single-threaded type-checking; `make test` runs it without -race")
	}
	s := &surfaces
	s.once.Do(func() {
		fset := token.NewFileSet()
		im := &sourceImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil), checked: map[string]*types.Package{}}
		for _, m := range []*module{{path: "invarnetx", dir: "."}, {path: "fixture", dir: filepath.Join("testdata", "surface")}} {
			m.fset, m.info, m.files = fset, &types.Info{Uses: map[*ast.Ident]types.Object{}}, map[*types.Package][]*ast.File{}
			im.modules = append(im.modules, m)
			if s.err = im.loadAll(m); s.err != nil {
				return
			}
		}
		s.invarnetx, s.fixture = im.modules[0], im.modules[1]
		// The standard library calls these through its own interfaces, so
		// a method implementing one needs no caller in the module.
		s.stdIfaces = []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
		for _, name := range []string{"fmt.Stringer", "net/http.Handler"} {
			dot := strings.LastIndex(name, ".")
			p, err := im.Import(name[:dot])
			if err != nil {
				s.err = err
				return
			}
			s.stdIfaces = append(s.stdIfaces, p.Scope().Lookup(name[dot+1:]).Type().Underlying().(*types.Interface))
		}
	})
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.invarnetx, s.fixture, s.stdIfaces
}

// usage is what references one declaration.
type usage struct {
	product bool     // a non-test file outside bench/
	bench   []string // "bench/<file> l. <line>", each bench/ reference
	called  bool     // a file of another package, bench/'s included
}

func (u *usage) add(o *usage) {
	u.product = u.product || o.product
	u.bench = append(u.bench, o.bench...)
}

// surfaceErrors applies the closed-package rule to m: its packages under
// m.path/internal/ are closed and m.path/bench is bench/. A declaration counts as referenced only through an identifier
// that resolves to it; a method also through a used method of the same name
// of an interface its type implements (stdIfaces stand for the standard
// library's uses). Names only tests reference must be listed in oracles,
// names only bench/ references in benchOnly, at a cited line that holds a
// reference.
func surfaceErrors(m *module, stdIfaces []*types.Interface, oracles, benchOnly map[string]string) []string {
	uses := map[types.Object]*usage{}
	for _, p := range m.pkgs {
		for _, f := range m.files[p] {
			// A method's receiver names its type, but does not use it.
			recv := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || recv[id] {
					return true
				}
				obj := m.info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				u := uses[obj]
				if u == nil {
					u = &usage{}
					uses[obj] = u
				}
				u.called = u.called || obj.Pkg() != p
				if p.Path() == m.path+"/bench" {
					at := m.fset.Position(id.Pos())
					u.bench = append(u.bench, fmt.Sprintf("%s l. %d", filepath.ToSlash(at.Filename), at.Line))
				} else {
					u.product = true
				}
				return true
			})
		}
	}
	// Interface methods some file uses, each with its interface.
	type abstract struct {
		iface *types.Interface
		use   *usage
	}
	abstracts := map[string][]abstract{}
	for _, iface := range stdIfaces {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			abstracts[name] = append(abstracts[name], abstract{iface, &usage{product: true}})
		}
	}
	for obj, u := range uses {
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
			rt := fn.Type().(*types.Signature).Recv().Type()
			if tp, ok := rt.(*types.TypeParam); ok {
				rt = tp.Constraint()
			}
			if iface, ok := rt.Underlying().(*types.Interface); ok {
				abstracts[fn.Name()] = append(abstracts[fn.Name()], abstract{iface, u})
			}
		}
	}

	type decl struct {
		obj types.Object
		id  string
		fn  bool
		use usage
	}
	var decls []decl
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.Path(), m.path+"/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			id := p.Path() + "." + name
			switch obj := obj.(type) {
			case *types.Func:
				decls = append(decls, decl{obj: obj, id: id, fn: true})
			case *types.TypeName:
				decls = append(decls, decl{obj: obj, id: id})
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				var methods []*types.Func
				if iface, ok := named.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumExplicitMethods(); i++ {
						methods = append(methods, iface.ExplicitMethod(i))
					}
				}
				for i := 0; i < named.NumMethods(); i++ {
					methods = append(methods, named.Method(i))
				}
				// A pointer's method set holds the value's, and a pointer to
				// an interface implements nothing, so an interface's own
				// methods are credited only where they are used.
				ptr := types.NewPointer(named)
				for _, fn := range methods {
					if !fn.Exported() {
						continue
					}
					d := decl{obj: fn, id: id + "." + fn.Name()}
					for _, a := range abstracts[fn.Name()] {
						if types.Implements(ptr, a.iface) {
							d.use.add(a.use)
						}
					}
					decls = append(decls, d)
				}
			}
		}
	}

	var errs []string
	orphaned := map[string]bool{}
	benchKept := map[string][]string{} // bench-only name → its bench/ references
	for _, d := range decls {
		if u := uses[d.obj]; u != nil {
			d.use.add(u)
			d.use.called = u.called
		}
		at := m.fset.Position(d.obj.Pos())
		switch {
		case !d.use.product && len(d.use.bench) == 0:
			orphaned[d.id] = true
			if oracles[d.id] == "" {
				errs = append(errs, fmt.Sprintf("%s: %s is exported from a package nothing outside the module can import, and no non-test file references it", at, d.id))
			}
		case !d.use.product:
			benchKept[d.id] = d.use.bench
			if benchOnly[d.id] == "" {
				errs = append(errs, fmt.Sprintf("%s: %s (%s) is referenced by no non-test file outside bench/: delete it, or give it a product caller", at, d.id, strings.Join(d.use.bench, ", ")))
			}
		case d.fn && !d.use.called:
			errs = append(errs, fmt.Sprintf("%s: %s is a function only its own package calls: unexport it", at, d.id))
		}
	}
	for name, reason := range benchOnly {
		at, ok := benchKept[name]
		if !ok {
			errs = append(errs, fmt.Sprintf("%s is listed in benchOnly but is no longer an exported name only bench/ references: drop the entry", name))
			continue
		}
		cites := benchCite.FindAllString(reason, -1)
		if len(cites) == 0 {
			errs = append(errs, fmt.Sprintf("benchOnly[%q] = %q cites no bench/ line", name, reason))
		}
		for _, c := range cites {
			found := false
			for _, a := range at {
				found = found || a == c
			}
			if !found {
				errs = append(errs, fmt.Sprintf("benchOnly[%q] cites %s, which holds no reference to it (its bench/ references: %s)", name, c, strings.Join(at, ", ")))
			}
		}
	}
	for name, reason := range oracles {
		if reason == "" {
			errs = append(errs, fmt.Sprintf("testOracles[%q] gives no reason", name))
		}
		if !orphaned[name] {
			errs = append(errs, fmt.Sprintf("%s is listed in testOracles but is no longer an exported name without a non-test caller: drop the entry", name))
		}
	}
	sort.Strings(errs)
	return errs
}

// benchCite matches one cited bench/ line of a benchOnly reason.
var benchCite = regexp.MustCompile(`bench/\S+\.go l\. \d+`)

// TestClosedPackagesExportOnlyWhatIsCalled type-checks every non-test file of
// the module (and of bench/, a caller in its own module) and fails on an
// exported function, type, or method of an exported type or interface,
// declared under internal/, that no identifier resolves to, or that only
// bench/ references and benchOnly does not list, or on an exported
// package-level function that no file of another package references (bench/
// counts).
func TestClosedPackagesExportOnlyWhatIsCalled(t *testing.T) {
	if len(testOracles) > maxTestOracles {
		t.Errorf("testOracles holds %d names, at most %d are allowed", len(testOracles), maxTestOracles)
	}
	if len(benchOnly) > maxBenchOnly {
		t.Errorf("benchOnly holds %d names, at most %d are allowed: bench/ may not keep a new shim alive", len(benchOnly), maxBenchOnly)
	}
	m, _, std := loadSurfaces(t)
	for _, e := range surfaceErrors(m, std, testOracles, benchOnly) {
		t.Error(e)
	}
}

// TestSurfaceCheckResolvesReferences runs the closed-package rule over the
// fixture module in testdata/surface, which plants a dead method whose name
// a type selector shares, a method reached only through a generic
// constraint, and a String method only fmt calls. Only the dead method may
// be reported.
func TestSurfaceCheckResolvesReferences(t *testing.T) {
	_, fixture, std := loadSurfaces(t)
	errs := surfaceErrors(fixture, std, nil, nil)
	if len(errs) != 1 || !strings.Contains(errs[0], " fixture/internal/lib.Client.Report is exported") {
		t.Errorf("want exactly fixture/internal/lib.Client.Report reported, got %d errors:\n%s", len(errs), strings.Join(errs, "\n"))
	}
}

// testbed names the packages that simulate the paper's evaluation — the
// Hadoop cluster and its collectl agent, the CPI sampler, the fault and
// workload generators, the lossy telemetry path and the studies — which the
// product's import closure must not reach: the daemon and the library core
// serve collectl samples and CPI, whatever produced them.
var testbed = []string{"cluster", "cpi", "faults", "workload", "telemetry", "experiments"}

// TestProductLinksNoTestbed fails when the import closure of cmd/invarnetd or
// internal/core holds a testbed package, or when internal/metrics, the
// sample vocabulary every layer shares, imports any package of the module.
func TestProductLinksNoTestbed(t *testing.T) {
	m, _, _ := loadSurfaces(t)
	pkgs := map[string]*types.Package{}
	for _, p := range m.pkgs {
		pkgs[p.Path()] = p
	}
	for _, root := range []string{"invarnetx/cmd/invarnetd", "invarnetx/internal/core"} {
		if pkgs[root] == nil {
			t.Fatalf("%s was not type-checked", root)
		}
		closure := map[string]bool{}
		var walk func(*types.Package)
		walk = func(p *types.Package) {
			for _, q := range p.Imports() {
				if strings.HasPrefix(q.Path(), "invarnetx/") && !closure[q.Path()] {
					closure[q.Path()] = true
					walk(q)
				}
			}
		}
		walk(pkgs[root])
		for _, name := range testbed {
			if closure["invarnetx/internal/"+name] {
				t.Errorf("%s links the testbed package internal/%s", root, name)
			}
		}
	}
	for _, q := range pkgs["invarnetx/internal/metrics"].Imports() {
		if strings.HasPrefix(q.Path(), "invarnetx/") {
			t.Errorf("internal/metrics imports %s: the sample vocabulary imports nothing of the module", q.Path())
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
