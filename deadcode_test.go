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

// testSupport names the declarations production never reaches that
// stay because tests need them, each with its reason. An entry is a
// qualified name or, for a package that exists to support tests, a bare
// package name. What an entry reaches is exempt with it. An entry is
// stale, and fails the test, once nothing references it or production
// reaches it.
var testSupport = []string{
	// The deterministic chaos layer the replica and snapfile tests
	// inject faults with.
	"faultinject",
	// The scale-0.02 configuration every package's tests build.
	"core.TestConfig",
	// References the tests compare production against: a batch
	// decoder written apart from WireReader, the peer an
	// interface's link ends at, the inverse projection, the
	// point-in-hull test the hull construction is checked with and
	// the patch centre PatchGrid.Index must map back.
	"geoserve.DecodeWireBatch", "netgen.Internet.PeerIface",
	"geo.Albers.Unproject", "geo.InHull", "geo.PatchGrid.Center",
	// One-line accessors for state no production surface shows: the
	// trace ID an error frame carried, and how many routing tables
	// netsim holds (core's eviction test reads it).
	"geoserve.WireReader.ErrTraceID", "netsim.Network.CachedTables",
}

// TestNoDeadCode fails on any package-level func, method, type, const
// or var of any package of the module that production code does not
// reach. It type-checks every package of the module with its tests
// using only the standard library's go/parser and go/types, with the
// "source" importer for the standard library, and follows references
// in non-test files from these roots: main and init, and the names
// bench/ pins. A method that satisfies an interface is reached with
// its receiver type (it may be called through the interface), and a
// const of an iota block with any of its siblings (the block is one
// encoding). A reference from a test proves nothing; what tests alone
// need goes on testSupport.
func TestNoDeadCode(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)

	roots := slices.Clone(m.roots)
	for _, n := range benchPinned {
		if len(m.byName[n]) == 0 {
			t.Errorf("benchPinned names %s, which the module does not declare", n)
		}
		roots = append(roots, m.byName[n]...)
	}
	live := m.reach(roots)

	var support []token.Pos
	for _, n := range testSupport {
		ps := m.byName[n]
		if len(ps) == 0 {
			t.Errorf("testSupport names %s, which the module does not declare", n)
		}
		referenced := false
		for _, p := range ps {
			if live[p] {
				t.Errorf("stale testSupport entry %s: production reaches %s", n, m.fset.Position(p))
			}
			referenced = referenced || m.referenced(p)
		}
		if len(ps) > 0 && !referenced {
			t.Errorf("stale testSupport entry %s: nothing references it", n)
		}
		support = append(support, ps...)
	}
	supported := m.reach(support)

	var dead []string
	for _, pkg := range m.prodPkgs {
		for _, obj := range declared(pkg) {
			if obj.Name() != "_" && !live[obj.Pos()] && !supported[obj.Pos()] {
				dead = append(dead, m.fset.Position(obj.Pos()).String()+": "+qualified(obj))
			}
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no production caller: %s", d)
	}
}

// reach returns the declarations reachable from roots, keyed by the
// position of their declaring identifiers.
func (m *module) reach(roots []token.Pos) map[token.Pos]bool {
	live := map[token.Pos]bool{}
	queue := slices.Clone(roots)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if live[p] {
			continue
		}
		live[p] = true
		for q := range m.edges[p] {
			queue = append(queue, q)
		}
	}
	return live
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
	// every identifier, in test files too, that refers to it (method
	// receivers excluded).
	uses map[token.Pos][]token.Pos
	// decls maps a declaring identifier's position to its whole
	// declaration's extent, which its own references do not leave.
	decls map[token.Pos][2]token.Pos
	// edges maps a declaring identifier's position to the declarations
	// that reaching it reaches: those its non-test declaration refers
	// to, a type's interface-satisfying methods and an iota const's
	// siblings.
	edges map[token.Pos]map[token.Pos]bool
	// roots are the main and init funcs; byName the declarations of
	// the non-test packages by qualified name, and every declaration
	// of a package under its bare name.
	roots  []token.Pos
	byName map[string][]token.Pos
	// ifaces are the interface types production code uses, with the
	// named ones of every package it imports; ifacePkgs the packages
	// whose named interfaces are already in it.
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
		edges:     map[token.Pos]map[token.Pos]bool{},
		byName:    map[string][]token.Pos{},
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
	for _, pkg := range m.prodPkgs {
		for _, obj := range declared(pkg) {
			m.byName[qualified(obj)] = append(m.byName[qualified(obj)], obj.Pos())
			m.byName[pkg.Name()] = append(m.byName[pkg.Name()], obj.Pos())
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			m.linkInterfaceMethods(tn)
			// An alias's methods answer to its name too (Engine.Lookup
			// is Cluster.Lookup).
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && tn.IsAlias() {
				for i := 0; i < named.NumMethods(); i++ {
					n := pkg.Name() + "." + tn.Name() + "." + named.Method(i).Name()
					m.byName[n] = append(m.byName[n], named.Method(i).Pos())
				}
			}
		}
	}
	return m
}

// link records that reaching the declaration at from reaches the one
// at to.
func (m *module) link(from, to token.Pos) {
	if m.edges[from] == nil {
		m.edges[from] = map[token.Pos]bool{}
	}
	m.edges[from][to] = true
}

// noteDecls records the extent of every package-level declaration in
// f, keyed by its declaring identifiers.
func (m *module) noteDecls(f *ast.File) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			m.decls[d.Name.Pos()] = [2]token.Pos{d.Pos(), d.End()}
		case *ast.GenDecl:
			var names []*ast.Ident
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					m.decls[s.Name.Pos()] = [2]token.Pos{s.Pos(), s.End()}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						m.decls[n.Pos()] = [2]token.Pos{s.Pos(), s.End()}
					}
					names = append(names, s.Names...)
				}
			}
			if d.Tok == token.CONST && mentionsIota(d) {
				for _, a := range names {
					for _, b := range names {
						m.link(a.Pos(), b.Pos())
					}
				}
			}
		}
	}
}

// mentionsIota reports whether n uses iota, which makes a const block
// one enumeration.
func mentionsIota(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
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
// package, caches it in pkgs. The first check of a non-test package
// also records its declarations' edges, its roots and the interfaces
// it uses. Any type error fails the test: an unresolved identifier
// could hide a reference.
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
	_, cached := pkgs[path]
	prod := !cached && variant == "" && !strings.HasSuffix(path, "_test")
	if !cached && !strings.HasSuffix(path, "_test") {
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
	if !prod {
		return pkg
	}
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && f.Name.Name == "main") {
					m.roots = append(m.roots, d.Name.Pos())
				}
				m.linkRefs(info, d.Name.Pos(), d)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						m.linkRefs(info, s.Name.Pos(), s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							m.linkRefs(info, n.Pos(), s)
						}
					}
				}
			}
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

// linkRefs links the declaration at from to every package-level
// declaration of the module an identifier inside n refers to.
func (m *module) linkRefs(info *types.Info, from token.Pos, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil {
				if _, ok := m.decls[obj.Pos()]; ok {
					m.link(from, obj.Pos())
				}
			}
		}
		return true
	})
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

// linkInterfaceMethods links the type tn to the methods (promoted ones
// too) by which it or its pointer satisfies an interface production
// code uses, so they are reached once the type is: they may be called
// through the interface rather than by name.
func (m *module) linkInterfaceMethods(tn *types.TypeName) {
	if tn.IsAlias() || types.IsInterface(tn.Type()) {
		return
	}
	ptr := types.NewPointer(tn.Type())
	ms := types.NewMethodSet(ptr)
	if ms.Len() == 0 {
		return
	}
	for it := range m.ifaces {
		if it.NumMethods() == 0 || !types.Implements(ptr, it) {
			continue
		}
		for i := 0; i < it.NumMethods(); i++ {
			if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
				if _, ok := m.decls[sel.Obj().Pos()]; ok {
					m.link(tn.Pos(), sel.Obj().Pos())
				}
			}
		}
	}
}

// referenced reports whether some identifier, in a test file or not,
// refers to the declaration at p from outside it.
func (m *module) referenced(p token.Pos) bool {
	span := m.decls[p]
	for _, u := range m.uses[p] {
		if u < span[0] || u >= span[1] {
			return true
		}
	}
	return false
}
