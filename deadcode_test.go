package geonet

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// benchPinned is the surface the bench/ module calls, as listed in
// bench/README.md § "The surface the harness calls". bench/ is a module
// of its own, so its references are not seen here; these names may
// have no caller inside this module.
var benchPinned = []string{
	"core.Run", "core.Config", "core.Pipeline.Serve", "core.Pipeline.ServeDelta",
	"core.Pipeline.Churner", "core.ServeOptions",
	"churn.Churner.Next", "churn.Step",
	"geoserve.NewEngine", "geoserve.Engine", "geoserve.Engine.Lookup", "geoserve.Engine.Swap",
	"geoserve.Engine.Snapshot", "geoserve.NewCluster", "geoserve.ClusterConfig",
	"geoserve.Cluster.Lookup", "geoserve.Cluster.LookupBatch", "geoserve.Cluster.Swap",
	"geoserve.Cluster.SwapDelta", "geoserve.Cluster.Snapshot", "geoserve.NewHandler",
	"geoserve.NewClusterHandler", "geoserve.Snapshot.Lookup", "geoserve.Snapshot.Digest",
	"geoserve.Snapshot.Mappers", "geoserve.Snapshot.Prefixes", "geoserve.Answer",
	"geoserve.DeltaStats", "geoserve.AppendWireBatchRequest", "geoserve.NewWireReader",
	"geoserve.WireReader.Next", "geoserve.MarshalAnswerJSON", "geoserve.FormatIPv4",
	"geoserve.MaxBatch", "geoserve.WireAnswerSize", "geoserve.WireVersion",
	"geoserve.WireContentType",
	"snapfile.Encode", "snapfile.Decode", "snapfile.Diff", "snapfile.Apply", "snapfile.Load",
	"replica.NewPublisher", "replica.Publisher.SetRetain", "replica.Publisher.Publish",
	"replica.Publisher.Handler", "replica.Manifest", "replica.New", "replica.Config",
	"replica.Replica.SyncOnce", "replica.Replica.Handler", "replica.Replica.Status",
	"replica.Replica.Epoch", "replica.Replica.Cluster", "replica.Status",
	"replica.NewRouter", "replica.RouterConfig", "replica.Router.ProbeOnce",
	"replica.Router.Handler", "replica.Router.Status", "replica.RouterStatus",
	"obs.TraceHeader", "obs.NewTraceID",
}

// TestNoDeadCode fails on any package-level func, method, type, const
// or var of any package of the module that nothing in the module
// references outside its own declaration. It type-checks every package of the module with
// its tests (references from test files count) using only the standard
// library's go/parser and go/types, with the "source" importer for the
// standard library. Exempt are main and init, the names bench/ pins,
// and methods that satisfy an interface (they are called through it).
func TestNoDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)

	pinned := map[string]bool{}
	for _, n := range benchPinned {
		pinned[n] = true
	}
	var dead []string
	for _, pkg := range m.prodPkgs {
		for _, obj := range declared(pkg) {
			name := qualified(obj)
			switch obj.Name() {
			case "_", "main", "init":
				continue
			}
			if pinned[name] || m.referenced(obj) || m.satisfiesInterface(obj) {
				continue
			}
			dead = append(dead, m.fset.Position(obj.Pos()).String()+": "+name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("unreferenced: %s", d)
	}
}

// declared lists pkg's package-level objects and the methods of its
// named types.
func declared(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		obj := scope.Lookup(n)
		out = append(out, obj)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					out = append(out, named.Method(i))
				}
			}
		}
	}
	return out
}

// qualified names obj as "pkg.Name" or, for a method, "pkg.Type.Name".
func qualified(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// module is every package of the module, parsed once. Each file is
// parsed into one shared FileSet, so an object is identified across
// type-checks by the position of its declaring identifier.
type module struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer
	// prod, inTest and xTest are each directory's non-test files, its
	// package-internal test files and its external (_test) test files,
	// by import path.
	prod, inTest, xTest map[string][]*ast.File
	// prodPkgs caches the non-test packages, checked against each
	// other.
	prodPkgs map[string]*types.Package
	// uses maps a declaring identifier's position to the positions of
	// every identifier that refers to it (method receivers excluded).
	uses map[token.Pos][]token.Pos
	// decls maps a declaring identifier's position to its whole
	// declaration's extent, which its own references do not leave.
	decls map[token.Pos][2]token.Pos
	// ifaces are the interface types seen anywhere while checking;
	// ifacePkgs the packages whose named interfaces are already in it.
	ifaces    map[*types.Interface]bool
	ifacePkgs map[*types.Package]bool
}

func loadModule(t *testing.T) *module {
	// Pick the pure-Go variants of the standard library, so the source
	// importer needs no C toolchain; MatchFile below applies the same
	// build constraints to the module's own files.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	t.Cleanup(func() { build.Default.CgoEnabled = cgo })
	m := &module{
		t:         t,
		fset:      token.NewFileSet(),
		prod:      map[string][]*ast.File{},
		inTest:    map[string][]*ast.File{},
		xTest:     map[string][]*ast.File{},
		prodPkgs:  map[string]*types.Package{},
		uses:      map[token.Pos][]token.Pos{},
		decls:     map[token.Pos][2]token.Pos{},
		ifaces:    map[*types.Interface]bool{},
		ifacePkgs: map[*types.Package]bool{},
	}
	m.std = importer.ForCompiler(m.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok || err != nil {
			return err
		}
		f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "geonet"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			m.prod[ip] = append(m.prod[ip], f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			m.xTest[ip] = append(m.xTest[ip], f)
		default:
			m.inTest[ip] = append(m.inTest[ip], f)
		}
		m.noteDecls(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every package with its internal tests, checked against the
	// non-test packages; then every external test package, in a
	// universe of its own where the package under test includes its
	// internal test files (export_test.go) and whatever imports it is
	// re-checked against that variant, as go test builds it.
	paths := make([]string, 0, len(m.prod))
	for ip := range m.prod {
		paths = append(paths, ip)
	}
	slices.Sort(paths)
	for _, ip := range paths {
		(&moduleImporter{m, m.prodPkgs, ""}).importPkg(ip)
		if len(m.inTest[ip]) > 0 {
			m.check(ip, append(slices.Clone(m.prod[ip]), m.inTest[ip]...), m.prodPkgs, "")
		}
	}
	for ip, files := range m.xTest {
		m.check(ip+"_test", files, map[string]*types.Package{}, ip)
	}
	return m
}

// noteDecls records the extent of every package-level declaration in
// f, keyed by its declaring identifiers.
func (m *module) noteDecls(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			m.decls[d.Name.Pos()] = [2]token.Pos{d.Pos(), d.End()}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					m.decls[s.Name.Pos()] = [2]token.Pos{s.Pos(), s.End()}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						m.decls[n.Pos()] = [2]token.Pos{s.Pos(), s.End()}
					}
				}
			}
		}
	}
}

// moduleImporter resolves module imports within one universe of
// packages: the shared non-test one when variant is "", otherwise the
// universe of variant's external tests, where the package variant
// carries its internal test files.
type moduleImporter struct {
	m       *module
	pkgs    map[string]*types.Package
	variant string
}

func (mi *moduleImporter) Import(path string) (*types.Package, error) {
	if path != "geonet" && !strings.HasPrefix(path, "geonet/") {
		return mi.m.std.Import(path)
	}
	return mi.importPkg(path), nil
}

func (mi *moduleImporter) importPkg(path string) *types.Package {
	if pkg, ok := mi.pkgs[path]; ok {
		return pkg
	}
	files := mi.m.prod[path]
	if path == mi.variant {
		files = append(slices.Clone(files), mi.m.inTest[path]...)
	}
	return mi.m.check(path, files, mi.pkgs, mi.variant)
}

// check type-checks files as the package at path, records what its
// identifiers refer to and, unless pkgs already holds path (the
// internal-test variant of a package) or path names an external test
// package, caches it in pkgs. Any type error fails the test: an
// unresolved identifier could hide a reference.
func (m *module) check(path string, files []*ast.File, pkgs map[string]*types.Package, variant string) *types.Package {
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{
		Importer: &moduleImporter{m, pkgs, variant},
		Error:    func(err error) { m.t.Errorf("type-check %s: %v", path, err) },
	}
	pkg, _ := conf.Check(path, m.fset, files, info)
	if _, ok := pkgs[path]; !ok && !strings.HasSuffix(path, "_test") {
		pkgs[path] = pkg
	}
	recv := map[*ast.Ident]bool{}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range info.Uses {
		if !recv[id] && obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "geonet") {
			m.uses[obj.Pos()] = append(m.uses[obj.Pos()], id.Pos())
		}
	}
	for _, tv := range info.Types {
		if tv.Type == nil {
			continue
		}
		if it, ok := tv.Type.Underlying().(*types.Interface); ok {
			m.ifaces[it] = true
		}
	}
	m.noteInterfaces(pkg)
	return pkg
}

// noteInterfaces adds the named interface types of pkg and of every
// package it imports, transitively.
func (m *module) noteInterfaces(pkg *types.Package) {
	if pkg == nil || m.ifacePkgs[pkg] {
		return
	}
	m.ifacePkgs[pkg] = true
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				m.ifaces[it] = true
			}
		}
	}
	for _, imp := range pkg.Imports() {
		m.noteInterfaces(imp)
	}
}

// referenced reports whether some identifier outside obj's own
// declaration refers to it.
func (m *module) referenced(obj types.Object) bool {
	span := m.decls[obj.Pos()]
	for _, u := range m.uses[obj.Pos()] {
		if u < span[0] || u >= span[1] {
			return true
		}
	}
	return false
}

// satisfiesInterface reports whether obj is a method some interface
// seen in the module (or the standard library it imports) names and
// its receiver type implements, so it may be called through that
// interface rather than by name.
func (m *module) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	ptr := types.NewPointer(rt)
	for it := range m.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(rt, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}
