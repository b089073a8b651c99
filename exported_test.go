package paragraph_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedWithoutCaller names the exported declarations under internal/ that
// no program calls but that stay, each with the reason it stays. A key is the
// package's path under internal/, the receiver type for a method, and the
// name; a key without a dot names a package that no non-test file imports.
// What a listed name references stays alive through it. An entry whose name
// is gone or has gained a program caller fails the gate, and so does a bench/
// entry that bench/ no longer calls, so the list only shrinks.
var exportedWithoutCaller = map[string]string{
	"progen": "test support: the random kernel generator the equivalence and census tests draw from",

	"gnn.Encode":                     "oracle: a fresh parse → Build → Encode of one point, which the front end's memo is held to",
	"gnn.Model.PredictTape":          "oracle: the tape forward the engine's predictions are held to",
	"nn.Forward.Gradients":           "oracle: the tape's gradients the hand backward is held to",
	"advisor.Advisor.EncodeInstance": "oracle: the per-point encoding the grid front end is held to",
	"autodiff.Tape.MSE":              "oracle: the tape loss the gradient checks reduce through",
	"experiments.Runner.Rows":        "golden: every artifact's rows at full precision (rows_tiny.golden)",

	"advisor.Advisor.SetWorkers": benchReason,
	"nn.ZeroGrads":               benchReason,
	"nn.Forward.Accumulate":      benchReason,
	"nn.Forward.Backward":        benchReason,
	"registry.Registry.Lookup":   benchReason,
	"serve.Batcher.Close":        benchReason,
	"gnn.Model.Params":           benchReason,
}

// benchReason marks a name only the repository benchmark (bench/, its own
// module) still calls; it goes when bench/ stops calling it.
const benchReason = "bench/ (item 26)"

// TestExportedNamesHaveCallers fails on every exported func, method, type,
// var or const declared in a non-test file under internal/ that no program
// reaches: no non-test file outside bench/ references it, directly or
// through declarations that are reached themselves. A method that satisfies
// a method of an interface its type implements is reached. The gate
// type-checks the module and bench/ from source, under every architecture
// that selects a file. Unexported names are staticcheck's (U1000).
func TestExportedNamesHaveCallers(t *testing.T) {
	m := loadModule(t, ".")
	listed := map[string]bool{}
	for key := range exportedWithoutCaller {
		listed[key] = true
		if !strings.Contains(key, ".") {
			if !m.internal[key] {
				t.Errorf("listed package %s is gone; drop its entry", key)
			} else if m.imported[key] {
				t.Errorf("listed package %s is imported by a non-test file; drop its entry", key)
			}
			for k := range m.decls {
				if pkgOf(k) == key {
					listed[k] = true
				}
			}
		} else if _, ok := m.decls[key]; !ok {
			t.Errorf("listed name %s is gone; drop its entry", key)
		}
	}
	program := m.reached(nil)
	kept := m.reached(listed)
	for _, key := range sortedKeys(m.decls) {
		reason, ok := exportedWithoutCaller[key]
		switch {
		case !kept[key]:
			t.Errorf("%s: exported %s has no caller outside tests; delete it or list it with a reason", m.decls[key], key)
		case ok && program[key]:
			t.Errorf("%s: %s is listed as without caller, but a program calls it; drop its entry", m.decls[key], key)
		case reason == benchReason && !m.bench[key]:
			t.Errorf("%s: %s is listed for bench/, which no longer calls it; delete it", m.decls[key], key)
		}
	}
}

const internalPrefix = "paragraph/internal/"

// archs are the architectures the gate checks the module under: together
// they select every non-test file (the gate fails on a file neither does).
var archs = []string{"amd64", "arm64"}

// module is what the gate learns from type-checking the module and bench/.
type module struct {
	fset     *token.FileSet
	decls    map[string]string   // key of each exported declaration under internal/ → its position
	refs     map[string][]string // key → the keys its declaration references
	roots    map[string]bool     // keys referenced outside any declaration under internal/, bench/ aside
	bench    map[string]bool     // keys a non-test file of bench/ references
	internal map[string]bool     // packages under internal/, by path under it
	imported map[string]bool     // of those, the ones a non-test file of another package imports
	spans    map[*token.File][]declSpan
}

// declSpan is the extent of one declaration under internal/: a func or
// method, a type, or a var or const spec (keys holds each name it declares;
// none for init and blank names, whose references count as roots).
type declSpan struct {
	pos, end token.Pos
	keys     []string
}

// reached returns the keys reachable from the roots and from seed.
func (m *module) reached(seed map[string]bool) map[string]bool {
	seen := map[string]bool{}
	var visit func(string)
	visit = func(k string) {
		if seen[k] {
			return
		}
		seen[k] = true
		for _, r := range m.refs[k] {
			visit(r)
		}
	}
	for k := range m.roots {
		visit(k)
	}
	for k := range seed {
		visit(k)
	}
	return seen
}

// enclosing returns the keys declared by the declaration under internal/
// that holds pos, and whether there is one.
func (m *module) enclosing(pos token.Pos) ([]string, bool) {
	for _, s := range m.spans[m.fset.File(pos)] {
		if s.pos <= pos && pos < s.end {
			return s.keys, true
		}
	}
	return nil, false
}

func loadModule(t *testing.T, root string) *module {
	t.Helper()
	dirs := packageDirs(t, root)
	m := &module{
		fset: token.NewFileSet(), decls: map[string]string{},
		refs: map[string][]string{}, roots: map[string]bool{}, bench: map[string]bool{},
		internal: map[string]bool{}, imported: map[string]bool{}, spans: map[*token.File][]declSpan{},
	}
	parsed := map[string]*ast.File{}
	methods := map[string]*types.Func{} // key → method, for the interface test
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}

	// check type-checks one package's files and records what they declare,
	// what they reference and the interfaces they mention.
	var imp importerFunc
	check := func(path string, files []string) *types.Package {
		var syntax []*ast.File
		for _, name := range files {
			f, ok := parsed[name]
			if !ok {
				var err error
				if f, err = parser.ParseFile(m.fset, name, nil, parser.SkipObjectResolution); err != nil {
					t.Fatal(err)
				}
				parsed[name] = f
				if pkg := strings.TrimPrefix(path, internalPrefix); pkg != path {
					m.spans[m.fset.File(f.Pos())] = declSpans(f, pkg)
				}
			}
			syntax = append(syntax, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(path, m.fset, syntax, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		for id, obj := range info.Defs {
			key, ok := keyOf(obj)
			if !ok {
				continue
			}
			if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
				methods[key] = f
			}
			if _, seen := m.decls[key]; !seen && obj.Exported() {
				m.decls[key] = m.fset.Position(id.Pos()).String()
			}
		}
		for id, obj := range info.Uses {
			key, ok := keyOf(obj)
			if !ok {
				continue
			}
			from, inDecl := m.enclosing(id.Pos())
			switch {
			case strings.HasPrefix(path, "paragraph/bench"):
				m.bench[key] = true
			case !inDecl || len(from) == 0:
				m.roots[key] = true
			}
			for _, f := range from {
				m.refs[f] = append(m.refs[f], key)
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces[it] = true
			}
		}
		for _, dep := range pkg.Imports() {
			if p := strings.TrimPrefix(dep.Path(), internalPrefix); p != dep.Path() {
				m.imported[p] = true
			}
		}
		return pkg
	}

	std := importer.Default()
	pkgs := map[string]*types.Package{}
	imp = func(path string) (*types.Package, error) {
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		dir, ok := dirs[path]
		if !ok {
			return std.Import(path)
		}
		p := check(path, goFiles(t, dir, archs[0]))
		pkgs[path] = p
		return p, nil
	}
	for _, path := range sortedKeys(dirs) {
		if p := strings.TrimPrefix(path, internalPrefix); p != path {
			m.internal[p] = true
		}
		if _, err := imp(path); err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
	}
	// A package whose files differ on another architecture is checked once
	// more with those files; what it imports stays as checked above.
	for _, path := range sortedKeys(dirs) {
		first := strings.Join(goFiles(t, dirs[path], archs[0]), ",")
		for _, arch := range archs[1:] {
			if files := goFiles(t, dirs[path], arch); strings.Join(files, ",") != first {
				check(path, files)
			}
		}
	}
	for _, dir := range dirs {
		for name := range goFileNames(t, dir) {
			if _, ok := parsed[name]; !ok {
				t.Errorf("%s: no architecture in %v selects this file, so the gate cannot read it", name, archs)
			}
		}
	}

	// The interfaces of every package the module imports count too.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
		for _, dep := range p.Imports() {
			walk(dep)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	for key, f := range methods {
		if satisfiesInterface(f, ifaces) {
			m.roots[key] = true
		}
	}
	return m
}

// satisfiesInterface reports whether f is a method of a concrete type that,
// as a value or a pointer, implements an interface with a method of f's name.
func satisfiesInterface(f *types.Func, ifaces map[*types.Interface]bool) bool {
	t := f.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if types.IsInterface(t) {
		return false
	}
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == f.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

// keyOf names a package-level object or a method declared under internal/:
// its package's path under internal/, then the receiver's type name for a
// method, then its name.
func keyOf(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	pkg := strings.TrimPrefix(obj.Pkg().Path(), internalPrefix)
	if pkg == obj.Pkg().Path() {
		return "", false
	}
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return pkg + "." + named.Obj().Name() + "." + f.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return pkg + "." + obj.Name(), true
}

// declSpans lists the top-level declarations of f, a file of package pkg
// under internal/, with the keys each declares.
func declSpans(f *ast.File, pkg string) []declSpan {
	var spans []declSpan
	add := func(n ast.Node, names ...string) {
		s := declSpan{pos: n.Pos(), end: n.End()}
		for _, name := range names {
			if name != "_" && name != "init" {
				s.keys = append(s.keys, pkg+"."+name)
			}
		}
		spans = append(spans, s)
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d, d.Name.Name)
				continue
			}
			base := d.Recv.List[0].Type
			for {
				switch x := base.(type) {
				case *ast.StarExpr:
					base = x.X
					continue
				case *ast.IndexExpr:
					base = x.X
					continue
				case *ast.IndexListExpr:
					base = x.X
					continue
				}
				break
			}
			add(d, base.(*ast.Ident).Name+"."+d.Name.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s, s.Name.Name)
				case *ast.ValueSpec:
					var names []string
					for _, id := range s.Names {
						names = append(names, id.Name)
					}
					add(s, names...)
				}
			}
		}
	}
	return spans
}

// packageDirs maps the import path of every directory under root holding
// non-test Go files to the directory, skipping dot-directories and testdata.
// bench/ is its own module, paragraph/bench, so its paths fall out the same
// way.
func packageDirs(t *testing.T, root string) map[string]string {
	t.Helper()
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if len(goFileNames(t, path)) > 0 {
			dirs[strings.TrimSuffix("paragraph/"+filepath.ToSlash(path), "/.")] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// goFiles lists the non-test Go files in dir that a build for arch selects.
func goFiles(t *testing.T, dir, arch string) []string {
	t.Helper()
	ctx := build.Default
	ctx.GOARCH = arch
	ctx.CgoEnabled = false
	var files []string
	for name := range goFileNames(t, dir) {
		ok, err := ctx.MatchFile(dir, filepath.Base(name))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			files = append(files, name)
		}
	}
	sort.Strings(files)
	return files
}

// goFileNames is the set of non-test Go files in dir.
func goFileNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			names[filepath.Join(dir, n)] = true
		}
	}
	return names
}

func pkgOf(key string) string { return key[:strings.Index(key, ".")] }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
