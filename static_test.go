package gmsim

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Rules about the module's own source, checked with go/parser and go/types.

// exportAllowlist holds the exported names under internal/ that nothing but
// their own package's tests names, each with the reason it stays.
var exportAllowlist = map[string]string{
	"mpi.World.Bcast": "the MPI operation TestMPIOperationTimingsPinned pins beside Barrier and Allreduce",
	"sim.Second":      "completes the unit set beside Nanosecond, Microsecond and Millisecond",
}

// simPkgs are the simulation packages: everything one simulated cluster runs
// on. The runner pool runs many simulations at once, so these share no
// state between runs and derive every result from the simulated clock and
// seeded streams alone.
var simPkgs = []string{"sim", "network", "lanai", "mcp", "gm", "host", "core", "mpi", "cluster", "topo", "fault", "phase", "model", "mem", "experiments"}

// goFile is one parsed source file of a module.
type goFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

// parseModule parses every .go file of the module at root that the default
// build context includes, skipping testdata and hidden directories.
func parseModule(t *testing.T, fset *token.FileSet, root string) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(dir), test: strings.HasSuffix(path, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// recvName is the type name of a method's receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// TestExportsHaveCallers: every exported name declared in a non-test file
// under internal/ is used by a non-test file of the module (cmd, bench and
// examples included) or by a test of another package. A name only its own
// package's tests use belongs in an export_test.go, or nowhere.
func TestExportsHaveCallers(t *testing.T) {
	dead := exportsWithoutCallers(t, ".", "gmsim")
	for key, reason := range exportAllowlist {
		if reason == "" {
			t.Errorf("allowlisted %s gives no reason", key)
		}
		if !slices.Contains(dead, key) {
			t.Errorf("allowlisted %s is no longer declared, or now has a caller: drop it from exportAllowlist", key)
		}
	}
	dead = slices.DeleteFunc(dead, func(key string) bool { _, ok := exportAllowlist[key]; return ok })
	if len(dead) > 0 {
		t.Errorf("exported, but used by no non-test file and no other package's tests (delete, unexport, or move to export_test.go):\n\t%s",
			strings.Join(dead, "\n\t"))
	}
}

// TestExportsRuleResolvesByType runs the rule on the fixture module in
// testdata/exports: a.T.Reset is called only by a's tests, while b calls
// b.U.Reset (flagged); a.T.String satisfies fmt.Stringer, which b's call to
// fmt.Println relies on; a.Probe is used only by b's tests. Of a.T's
// fields, b writes Live and only a's tests write Dead (flagged); of a.Sink's
// methods, b calls Put through the interface and Flush only on its own
// sink (flagged).
func TestExportsRuleResolvesByType(t *testing.T) {
	want := []string{"a.Sink.Flush", "a.T.Dead", "a.T.Reset"}
	if got := exportsWithoutCallers(t, "testdata/exports", "fixture"); !slices.Equal(got, want) {
		t.Fatalf("flagged %v, want %v", got, want)
	}
}

// exportsWithoutCallers type-checks the module at root, whose module path is
// mod, each package also with its in-package and external tests, and returns,
// sorted, the exported names declared in non-test files under internal/ that
// no non-test file and no other package's tests use, as pkg.Name or
// pkg.Type.Member, a member being a method, a struct field or an interface
// method. A use is the very object an identifier resolves to, so a name
// never passes by sharing its spelling with a live one; a struct field is
// used where it is read or written, by name or by position in a literal,
// and an interface method where it is called through the interface. A
// method also
// counts as used when its type satisfies an interface, declared in the
// universe or in a package the program imports, that names it: String for
// fmt.Stringer, Error for error, OnHop for network.FaultHook.
func exportsWithoutCallers(t *testing.T, root, mod string) []string {
	t.Helper()
	fset := token.NewFileSet()
	files := parseModule(t, fset, root)
	m := newModuleImporter(fset, mod)
	tests := map[string][]*ast.File{} // by import path
	for _, f := range files {
		if path := m.path(f.dir); f.test {
			tests[path] = append(tests[path], f.ast)
		} else {
			m.files[path] = append(m.files[path], f.ast)
		}
	}
	for _, path := range slices.Sorted(maps.Keys(m.files)) {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	type decl struct {
		key, dir string
		obj      types.Object
	}
	var decls []decl
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		add := func(key string, id *ast.Ident) {
			if id.IsExported() {
				decls = append(decls, decl{f.ast.Name.Name + "." + key, f.dir, m.info.Defs[id]})
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name.Name, d.Name)
				} else {
					add(recvName(d.Recv.List[0].Type)+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name.Name, s.Name)
						// Exported struct fields and interface methods; an
						// embedded field is used through what it promotes.
						var members []*ast.Field
						switch tt := s.Type.(type) {
						case *ast.StructType:
							members = tt.Fields.List
						case *ast.InterfaceType:
							members = tt.Methods.List
						}
						for _, fld := range members {
							for _, id := range fld.Names {
								add(s.Name.Name+"."+id.Name, id)
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id.Name, id)
						}
					}
				}
			}
		}
	}
	ifaces := programInterfaces(m)

	// Each package's tests, as the go tool builds them.
	for _, path := range slices.Sorted(maps.Keys(tests)) {
		var internal, external []*ast.File
		for _, f := range tests[path] {
			if strings.HasSuffix(f.Name.Name, "_test") {
				external = append(external, f)
			} else {
				internal = append(internal, f)
			}
		}
		v := m.testVariant(path, internal)
		if _, err := v.Import(path); err != nil {
			t.Fatalf("type-checking %s with its tests: %v", path, err)
		}
		if len(external) > 0 {
			if _, err := (&types.Config{Importer: v}).Check(path+"_test", fset, external, m.info); err != nil {
				t.Fatalf("type-checking %s_test: %v", path, err)
			}
		}
	}

	// A package's test variant re-declares its objects, so an object is
	// known by its package and position.
	type objKey struct {
		pkg string
		pos token.Pos
	}
	shipped := map[objKey]bool{}        // objects non-test files use
	testedFrom := map[objKey][]string{} // object -> dirs whose tests use it
	for _, f := range files {
		use := func(obj types.Object) {
			if obj == nil || obj.Pkg() == nil {
				return
			}
			k := objKey{obj.Pkg().Path(), obj.Pos()}
			if !f.test {
				shipped[k] = true
			} else if !slices.Contains(testedFrom[k], f.dir) {
				testedFrom[k] = append(testedFrom[k], f.dir)
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				use(m.info.Uses[n])
			case *ast.CompositeLit:
				// A struct literal without keys writes its fields by
				// position.
				st, ok := m.info.Types[n].Type.Underlying().(*types.Struct)
				if ok && len(n.Elts) > 0 {
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range n.Elts {
							use(st.Field(i))
						}
					}
				}
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		k := objKey{d.obj.Pkg().Path(), d.obj.Pos()}
		used := shipped[k] || slices.ContainsFunc(testedFrom[k], func(dir string) bool { return dir != d.dir })
		if !used && !satisfiesInterface(d.obj, ifaces) {
			dead = append(dead, d.key)
		}
	}
	slices.Sort(dead)
	return dead
}

// programInterfaces lists error and the interfaces declared in the packages
// m has type-checked and the packages they import.
func programInterfaces(m *moduleImporter) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	for _, p := range m.pkgs {
		for _, q := range append(p.Imports(), p) {
			if seen[q] {
				continue
			}
			seen[q] = true
			for _, name := range q.Scope().Names() {
				tn, ok := q.Scope().Lookup(name).(*types.TypeName)
				if !ok || tn.IsAlias() {
					continue
				}
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
					continue
				}
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	return ifaces
}

// satisfiesInterface reports whether obj is a method whose receiver type, or
// a pointer to it, implements one of ifaces that names the method.
func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
		return false // an interface's own method is used only by a call through it
	}
	return slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		for i := range it.NumMethods() {
			if it.Method(i).Name() == fn.Name() {
				return types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)
			}
		}
		return false
	})
}

// moduleImporter type-checks the module's packages from their parsed files
// and imports the standard library from export data. A test variant
// (testVariant) checks one package with its in-package tests, re-checks the
// packages that import it, and takes every other from its base.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.Importer
	mod     string                 // module path
	files   map[string][]*ast.File // by import path
	pkgs    map[string]*types.Package
	info    *types.Info
	base    *moduleImporter // test variant: where packages not reaching variant come from
	variant string
	reach   map[string]bool // test variant: whether a package imports variant, directly or not
}

func newModuleImporter(fset *token.FileSet, mod string) *moduleImporter {
	return &moduleImporter{
		fset:  fset,
		std:   importer.Default(),
		mod:   mod,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
}

// path is the import path of the module directory dir.
func (m *moduleImporter) path(dir string) string {
	if dir == "." {
		return m.mod
	}
	return m.mod + "/" + dir
}

// testVariant returns the importer the go tool's build of path's external
// tests amounts to: path checked with its in-package test files tests.
func (m *moduleImporter) testVariant(path string, tests []*ast.File) *moduleImporter {
	v := &moduleImporter{fset: m.fset, std: m.std, mod: m.mod, files: maps.Clone(m.files), pkgs: map[string]*types.Package{},
		info: m.info, base: m, variant: path, reach: map[string]bool{}}
	v.files[path] = append(slices.Clip(m.files[path]), tests...)
	return v
}

// reaches reports whether path is the variant or imports it.
func (m *moduleImporter) reaches(path string) bool {
	r, ok := m.reach[path]
	if !ok {
		r = path == m.variant
		for _, f := range m.files[path] {
			for _, imp := range f.Imports {
				r = r || m.reaches(strings.Trim(imp.Path.Value, `"`))
			}
		}
		m.reach[path] = r
	}
	return r
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != m.mod && !strings.HasPrefix(path, m.mod+"/") {
		return m.std.Import(path)
	}
	if m.base != nil && !m.reaches(path) {
		return m.base.Import(path)
	}
	if p := m.pkgs[path]; p != nil {
		return p, nil
	}
	p, err := (&types.Config{Importer: m}).Check(path, m.fset, m.files[path], m.info)
	m.pkgs[path] = p
	return p, err
}

// TestSimulationPackagesDeterministic holds the simulation packages' non-test
// files to the rules that keep a run a function of its spec:
//   - no go statement, and no import of sync or sync/atomic: a simulation
//     runs on one goroutine, beside others in the runner pool, and shares no
//     state to lock;
//   - no wall-clock read (time.Now, time.Since, time.Until);
//   - no package-level math/rand call other than a constructor: every
//     stream is seeded;
//   - every range over a map (or over maps.Keys, Values or All) carries an
//     "// order-free:" comment, on its line or the line above, saying why
//     the iteration order cannot reach a result;
//   - no float product feeds a sum or difference unconverted (fusedSums):
//     write x*y + z as float64(x*y) + z, or arm64 may fuse it into one
//     multiply-add and a result would depend on GOARCH.
func TestSimulationPackagesDeterministic(t *testing.T) {
	fset := token.NewFileSet()
	m := newModuleImporter(fset, "gmsim")
	for _, f := range parseModule(t, fset, ".") {
		if !f.test {
			m.files[m.path(f.dir)] = append(m.files[m.path(f.dir)], f.ast)
		}
	}
	for _, pkg := range simPkgs {
		path := "gmsim/internal/" + pkg
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
		for _, f := range m.files[path] {
			for _, imp := range f.Imports {
				if p := strings.Trim(imp.Path.Value, `"`); p == "sync" || p == "sync/atomic" {
					t.Errorf("%s: imports %s: simulations share no state between runs", fset.Position(imp.Pos()), p)
				}
			}
			orderFree := map[int]bool{} // lines an order-free comment covers
			for _, cg := range f.Comments {
				if strings.Contains(cg.Text(), "order-free:") {
					end := fset.Position(cg.End()).Line
					orderFree[end], orderFree[end+1] = true, true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement: a simulation runs on one goroutine", fset.Position(n.Pos()))
				case *ast.Ident:
					fn, ok := m.info.Uses[n].(*types.Func)
					if !ok || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
						break
					}
					switch fn.Pkg().Path() {
					case "time":
						if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
							t.Errorf("%s: time.%s reads the wall clock", fset.Position(n.Pos()), fn.Name())
						}
					case "math/rand", "math/rand/v2":
						if !strings.HasPrefix(fn.Name(), "New") {
							t.Errorf("%s: rand.%s draws from the unseeded global source", fset.Position(n.Pos()), fn.Name())
						}
					}
				case *ast.RangeStmt:
					if rangesOverMap(m.info, n.X) && !orderFree[fset.Position(n.Pos()).Line] {
						t.Errorf("%s: range over a map needs an \"// order-free:\" comment saying why its order cannot reach a result", fset.Position(n.Pos()))
					}
				}
				return true
			})
			for _, pos := range fusedSums(m.info, f) {
				t.Errorf("%s: float product feeds a sum unconverted: write float64(x*y) ± z, or arm64 fuses it into one multiply-add", fset.Position(pos))
			}
		}
	}
}

// fusedSums returns where file f adds or subtracts a float product the
// compiler may fuse into one multiply-add: x*y ± z and z ± x*y, z += x*y and
// z -= x*y, and a local variable assigned a product and then added (the Go
// spec lets a compiler fuse across statements). A division by a constant
// counts as a product, since the compiler multiplies by an exact reciprocal.
// An explicit conversion, float64(x*y), rounds the product and stops the
// fusion; constant expressions are folded and never fuse.
func fusedSums(info *types.Info, f *ast.File) []token.Pos {
	isFloat := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		if !ok || tv.Value != nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsFloat != 0
	}
	isProduct := func(e ast.Expr) bool {
		e = ast.Unparen(e)
		b, ok := e.(*ast.BinaryExpr)
		if !ok || !isFloat(b) {
			return false
		}
		return b.Op == token.MUL || b.Op == token.QUO && info.Types[b.Y].Value != nil
	}
	// Local variables assigned a product somewhere in the file.
	products := map[types.Object]bool{}
	local := func(id *ast.Ident) types.Object {
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
			return v
		}
		return nil
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) && (as.Tok == token.DEFINE || as.Tok == token.ASSIGN) {
			for i, rhs := range as.Rhs {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && isProduct(rhs) {
					if obj := local(id); obj != nil {
						products[obj] = true
					}
				}
			}
		}
		return true
	})
	fused := func(e ast.Expr) bool {
		if isProduct(e) {
			return true
		}
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && products[local(id)]
	}
	var sites []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.ADD || n.Op == token.SUB) && isFloat(n) && (fused(n.X) || fused(n.Y)) {
				sites = append(sites, n.Pos())
			}
		case *ast.AssignStmt:
			if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && isFloat(n.Lhs[0]) && fused(n.Rhs[0]) {
				sites = append(sites, n.Pos())
			}
		}
		return true
	})
	return sites
}

// rangesOverMap reports whether x is a map, or an iterator over one from
// package maps.
func rangesOverMap(info *types.Info, x ast.Expr) bool {
	if _, ok := info.TypeOf(x).Underlying().(*types.Map); ok {
		return true
	}
	call, ok := x.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "maps" && slices.Contains([]string{"Keys", "Values", "All"}, fn.Name())
}

// TestFusedSumsRule holds fusedSums to a mutant file: every fusible form
// is found, and the converted, constant and integer forms are not.
func TestFusedSumsRule(t *testing.T) {
	const src = `package p

type T struct{ a, b float64 }

func f(x, y, z float64, n, k int, t *T) (float64, int) {
	r := x*y + z            // fused
	r = z - x*y             // fused
	r += x * y              // fused
	r -= (x / 2)            // fused
	r = (x-1.6)/2 + 1.6     // fused
	t.a = t.b*x + 0.5       // fused
	p := x * y
	r = p + 0.5             // fused: across statements
	r = float64(x*y) + z
	r += float64(x * y)
	r = x/y + z
	r = 2*1.5 + 1
	q := float64(x * y)
	r = q + 0.5
	t.b = x * y
	r = t.b + z
	return r, n*k + 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, pos := range fusedSums(info, f) {
		got = append(got, fset.Position(pos).Line)
	}
	if want := []int{6, 7, 8, 9, 10, 11, 13}; !slices.Equal(got, want) {
		t.Fatalf("flagged lines %v, want %v", got, want)
	}
}
