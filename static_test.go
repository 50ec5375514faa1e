package gmsim

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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
}

// simPkgs are the simulation packages: everything one simulated cluster runs
// on. The runner pool runs many simulations at once, so these share no
// state between runs and derive every result from the simulated clock and
// seeded streams alone.
var simPkgs = []string{"sim", "network", "lanai", "mcp", "gm", "host", "core", "mpi", "cluster", "topo", "fault", "phase", "model", "mem", "experiments"}

// goFile is one parsed source file of the module.
type goFile struct {
	dir  string // slash-separated, relative to the module root
	test bool
	ast  *ast.File
}

// parseModule parses every .go file of the module, skipping testdata and
// hidden directories.
func parseModule(t *testing.T, fset *token.FileSet) []goFile {
	t.Helper()
	var files []goFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(filepath.Dir(path)), test: strings.HasSuffix(path, "_test.go"), ast: f})
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
// under internal/ is named in a non-test file of the module (cmd, bench,
// examples and scripts included) or in a test file of another package. A
// name only its own package's tests use belongs in an export_test.go, or
// nowhere. The check is by name, so a dead name can pass by colliding with a
// live one, but a live one never fails.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := parseModule(t, fset)

	type decl struct{ key, name, dir string }
	var decls []decl
	declared := map[*ast.Ident]bool{} // top-level declaration names: no use
	for _, f := range files {
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declared[d.Name] = true
				if f.test || !strings.HasPrefix(f.dir, "internal/") || !d.Name.IsExported() {
					continue
				}
				key := f.ast.Name.Name + "." + d.Name.Name
				if d.Recv != nil {
					key = f.ast.Name.Name + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				decls = append(decls, decl{key, d.Name.Name, f.dir})
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						declared[id] = true
						if !f.test && strings.HasPrefix(f.dir, "internal/") && id.IsExported() {
							decls = append(decls, decl{f.ast.Name.Name + "." + id.Name, id.Name, f.dir})
						}
					}
				}
			}
		}
	}

	shipped := map[string]bool{}        // names used by non-test files
	testedFrom := map[string][]string{} // name -> dirs whose tests use it
	for _, f := range files {
		ast.Inspect(f.ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || declared[id] {
				return true
			}
			if !f.test {
				shipped[id.Name] = true
			} else if !slices.Contains(testedFrom[id.Name], f.dir) {
				testedFrom[id.Name] = append(testedFrom[id.Name], f.dir)
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		called := shipped[d.name] || slices.ContainsFunc(testedFrom[d.name], func(dir string) bool { return dir != d.dir })
		if _, ok := exportAllowlist[d.key]; !called && !ok {
			dead = append(dead, d.key)
		}
	}
	for key := range exportAllowlist {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("allowlisted %s is no longer declared: drop it from exportAllowlist", key)
		}
	}
	slices.Sort(dead)
	if len(dead) > 0 {
		t.Errorf("exported, but named by no non-test file and no other package's tests (delete, unexport, or move to export_test.go):\n\t%s",
			strings.Join(dead, "\n\t"))
	}
}

// moduleImporter type-checks the module's packages from their parsed
// non-test files and imports the standard library from export data.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.Importer
	files map[string][]*ast.File // by import path
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if !strings.HasPrefix(path, "gmsim/") {
		return m.std.Import(path)
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
	m := &moduleImporter{
		fset:  fset,
		std:   importer.Default(),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
	}
	for _, f := range parseModule(t, fset) {
		if !f.test {
			m.files["gmsim/"+f.dir] = append(m.files["gmsim/"+f.dir], f.ast)
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
