package cparse

import (
	"strings"
	"testing"

	"paragraph/internal/cast"
	"paragraph/internal/omp"
)

func mustParse(t *testing.T, src string) *cast.Node {
	t.Helper()
	root, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse error: %v\nsource:\n%s", err, src)
	}
	return root
}

func TestParseSimpleDeclAssign(t *testing.T) {
	// The paper's Figure 2 left example: int x; ... x = 50;
	root := mustParse(t, `
void f(void) {
    int x;
    x = 50;
}`)
	fn := cast.FindFunction(root, "f")
	if fn == nil {
		t.Fatal("function f not found")
	}
	body := fn.Body()
	if body == nil || body.Kind != cast.KindCompoundStmt {
		t.Fatal("no compound body")
	}
	if len(body.Children) != 2 {
		t.Fatalf("body has %d stmts, want 2:\n%s", len(body.Children), cast.DumpString(body))
	}
	ds := body.Children[0]
	if ds.Kind != cast.KindDeclStmt || ds.Children[0].Kind != cast.KindVarDecl {
		t.Errorf("first stmt = %s, want DeclStmt>VarDecl", ds)
	}
	asn := body.Children[1]
	if asn.Kind != cast.KindBinaryOperator || asn.Op != "=" {
		t.Fatalf("second stmt = %s, want BinaryOperator '='", asn)
	}
	// LHS: bare DeclRefExpr (lvalue); RHS: IntegerLiteral.
	if asn.Children[0].Kind != cast.KindDeclRefExpr {
		t.Errorf("assign LHS = %s, want DeclRefExpr", asn.Children[0])
	}
	if asn.Children[1].Kind != cast.KindIntegerLiteral || asn.Children[1].Value != "50" {
		t.Errorf("assign RHS = %s, want IntegerLiteral 50", asn.Children[1])
	}
	// Ref resolution: the DeclRefExpr must point at the VarDecl.
	if asn.Children[0].Ref != ds.Children[0] {
		t.Error("DeclRefExpr.Ref does not point at the VarDecl")
	}
}

func TestParseImplicitCastOnRead(t *testing.T) {
	root := mustParse(t, `
void f(void) {
    int x;
    int y;
    y = x + 1;
}`)
	// The read of x must be wrapped in ImplicitCastExpr.
	ices := cast.FindAll(root, cast.KindImplicitCastExpr)
	if len(ices) != 1 {
		t.Fatalf("found %d ImplicitCastExpr, want 1:\n%s", len(ices), cast.DumpString(root))
	}
	if ices[0].Children[0].Kind != cast.KindDeclRefExpr || ices[0].Children[0].Name != "x" {
		t.Errorf("cast wraps %s, want DeclRefExpr x", ices[0].Children[0])
	}
}

func TestParseForChildOrdering(t *testing.T) {
	// Paper §III-A.2: ForStmt children are [init, cond, body, inc].
	root := mustParse(t, `
void f(int n) {
    for (int i = 0; i < 50; i++) { n = n + 1; }
}`)
	fors := cast.FindAll(root, cast.KindForStmt)
	if len(fors) != 1 {
		t.Fatalf("found %d ForStmt, want 1", len(fors))
	}
	init, cond, body, inc := fors[0].ForParts()
	if init == nil {
		t.Fatal("ForParts returned nil")
	}
	if init.Kind != cast.KindDeclStmt {
		t.Errorf("init = %s, want DeclStmt", init)
	}
	if cond.Kind != cast.KindBinaryOperator || cond.Op != "<" {
		t.Errorf("cond = %s, want BinaryOperator '<'", cond)
	}
	if body.Kind != cast.KindCompoundStmt {
		t.Errorf("body = %s, want CompoundStmt", body)
	}
	if inc.Kind != cast.KindUnaryOperator || inc.Op != "post++" {
		t.Errorf("inc = %s, want UnaryOperator post++", inc)
	}
}

func TestParseForEmptyClauses(t *testing.T) {
	root := mustParse(t, `void f(void) { for (;;) { break; } }`)
	fs := cast.FindAll(root, cast.KindForStmt)[0]
	init, cond, body, inc := fs.ForParts()
	if init.Kind != cast.KindNullStmt || cond.Kind != cast.KindNullStmt || inc.Kind != cast.KindNullStmt {
		t.Errorf("empty clauses should be NullStmt, got %s / %s / %s", init, cond, inc)
	}
	if body.Kind != cast.KindCompoundStmt {
		t.Errorf("body = %s", body)
	}
}

func TestParseIfElse(t *testing.T) {
	root := mustParse(t, `
void f(int x) {
    if (x > 50) { x = 1; } else { x = 2; }
}`)
	ifs := cast.FindAll(root, cast.KindIfStmt)
	if len(ifs) != 1 {
		t.Fatalf("found %d IfStmt, want 1", len(ifs))
	}
	cond, then, els := ifs[0].IfParts()
	if cond.Kind != cast.KindBinaryOperator || cond.Op != ">" {
		t.Errorf("cond = %s", cond)
	}
	if then.Kind != cast.KindCompoundStmt || els == nil || els.Kind != cast.KindCompoundStmt {
		t.Errorf("then = %s, else = %v", then, els)
	}
}

func TestParseIfWithoutElse(t *testing.T) {
	root := mustParse(t, `void f(int x) { if (x) x = 1; }`)
	_, then, els := cast.FindAll(root, cast.KindIfStmt)[0].IfParts()
	if then == nil || els != nil {
		t.Errorf("then = %v, els = %v; want non-nil/nil", then, els)
	}
}

func TestParsePrecedence(t *testing.T) {
	root := mustParse(t, `void f(int a, int b, int c) { a = b + c * 2; }`)
	asn := cast.FindAll(root, cast.KindBinaryOperator)
	// Operators in preorder: =, +, *.
	var ops []string
	for _, n := range asn {
		ops = append(ops, n.Op)
	}
	want := []string{"=", "+", "*"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestParseRightAssociativeAssign(t *testing.T) {
	root := mustParse(t, `void f(int a, int b, int c) { a = b = c; }`)
	assigns := cast.FindAll(root, cast.KindBinaryOperator)
	if len(assigns) != 2 {
		t.Fatalf("found %d assigns, want 2", len(assigns))
	}
	// Outer assign's RHS must be the inner assign.
	outer := assigns[0]
	if outer.Children[1].Kind != cast.KindBinaryOperator {
		t.Errorf("a = (b = c) not right-associative:\n%s", cast.DumpString(outer))
	}
}

func TestParseCompoundAssign(t *testing.T) {
	root := mustParse(t, `void f(int a, int b) { a += b; a <<= 2; }`)
	cas := cast.FindAll(root, cast.KindCompoundAssignOperator)
	if len(cas) != 2 {
		t.Fatalf("found %d CompoundAssignOperator, want 2", len(cas))
	}
	if cas[0].Op != "+=" || cas[1].Op != "<<=" {
		t.Errorf("ops = %q, %q", cas[0].Op, cas[1].Op)
	}
}

func TestParseArraysAndCalls(t *testing.T) {
	root := mustParse(t, `
double g(double x);
void f(double *a, double *b, int n) {
    a[0] = g(b[n - 1]) * 2.0;
}`)
	subs := cast.FindAll(root, cast.KindArraySubscriptExpr)
	if len(subs) != 2 {
		t.Fatalf("found %d subscripts, want 2", len(subs))
	}
	calls := cast.FindAll(root, cast.KindCallExpr)
	if len(calls) != 1 || calls[0].Name != "g" {
		t.Fatalf("calls = %v", calls)
	}
	// Callee resolves to the prototype FunctionDecl.
	callee := calls[0].Children[0]
	if callee.Ref == nil || callee.Ref.Kind != cast.KindFunctionDecl {
		t.Error("callee not resolved to FunctionDecl")
	}
}

func TestParseNestedLoops(t *testing.T) {
	root := mustParse(t, `
void mm(double *a, double *b, double *c, int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            double sum = 0.0;
            for (int k = 0; k < n; k++) {
                sum += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = sum;
        }
    }
}`)
	if got := len(cast.FindAll(root, cast.KindForStmt)); got != 3 {
		t.Errorf("found %d loops, want 3", got)
	}
	if d := cast.LoopDepth(root); d != 3 {
		t.Errorf("LoopDepth = %d, want 3", d)
	}
}

func TestParseOMPParallelFor(t *testing.T) {
	root := mustParse(t, `
void axpy(double *x, double *y, double a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}`)
	dirs := cast.Directives(root)
	if len(dirs) != 1 {
		t.Fatalf("found %d directives, want 1", len(dirs))
	}
	d := dirs[0]
	if d.Dir.Kind != omp.DirParallelFor {
		t.Errorf("directive kind = %v", d.Dir.Kind)
	}
	if len(d.Children) != 1 || d.Children[0].Kind != cast.KindForStmt {
		t.Errorf("directive child = %v", d.Children)
	}
}

func TestParseOMPTargetCombined(t *testing.T) {
	root := mustParse(t, `
void k(double *a, int n, int m) {
    #pragma omp target teams distribute parallel for collapse(2) map(tofrom: a[0:n*m]) num_teams(8) num_threads(128)
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            a[i * m + j] = 0.0;
}`)
	d := cast.Directives(root)[0]
	if d.Dir.Kind != omp.DirTargetTeamsDistributeParallelFor {
		t.Errorf("kind = %v", d.Dir.Kind)
	}
	if d.Dir.CollapseDepth() != 2 {
		t.Errorf("collapse = %d", d.Dir.CollapseDepth())
	}
	if c, ok := d.Dir.Clause(omp.ClauseMap); !ok || c.MapDir != omp.MapToFrom {
		t.Errorf("map clause = %+v (present %v), want tofrom", c, ok)
	}
	if d.Dir.NumTeams() != 8 || d.Dir.NumThreads() != 128 {
		t.Errorf("teams/threads = %d/%d", d.Dir.NumTeams(), d.Dir.NumThreads())
	}
}

func TestParseWhileDoTernary(t *testing.T) {
	root := mustParse(t, `
void f(int n) {
    int i = 0;
    while (i < n) { i++; }
    do { i--; } while (i > 0);
    n = n > 0 ? n : -n;
}`)
	if len(cast.FindAll(root, cast.KindWhileStmt)) != 1 {
		t.Error("missing WhileStmt")
	}
	if len(cast.FindAll(root, cast.KindDoStmt)) != 1 {
		t.Error("missing DoStmt")
	}
	if len(cast.FindAll(root, cast.KindConditionalOperator)) != 1 {
		t.Error("missing ConditionalOperator")
	}
}

func TestParseMultiDeclarators(t *testing.T) {
	root := mustParse(t, `void f(void) { int a = 1, b, c = 3; double *p, q; }`)
	vds := cast.FindAll(root, cast.KindVarDecl)
	if len(vds) != 5 {
		t.Fatalf("found %d VarDecls, want 5", len(vds))
	}
	if vds[3].TypeName != "double *" {
		t.Errorf("p type = %q, want double *", vds[3].TypeName)
	}
	if vds[4].TypeName != "double" {
		t.Errorf("q type = %q, want double", vds[4].TypeName)
	}
}

func TestParseGlobalsAndArrays(t *testing.T) {
	root := mustParse(t, `
int g = 10;
double table[100];
void f(void) { table[g] = 1.0; }
`)
	vds := cast.FindAll(root, cast.KindVarDecl)
	if len(vds) != 2 {
		t.Fatalf("found %d globals, want 2", len(vds))
	}
	if !strings.Contains(vds[1].TypeName, "[]") {
		t.Errorf("array type = %q", vds[1].TypeName)
	}
	refs := cast.FindAll(root, cast.KindDeclRefExpr)
	for _, r := range refs {
		if r.Name == "table" && r.Ref != vds[1] {
			t.Error("table ref not resolved to global decl")
		}
	}
}

func TestParseScoping(t *testing.T) {
	root := mustParse(t, `
void f(int x) {
    { int x; x = 1; }
    x = 2;
}`)
	fn := cast.FindFunction(root, "f")
	parm := fn.Params()[0]
	var innerDecl *cast.Node
	for _, vd := range cast.FindAll(root, cast.KindVarDecl) {
		if vd.Name == "x" {
			innerDecl = vd
		}
	}
	var refs []*cast.Node
	for _, r := range cast.FindAll(root, cast.KindDeclRefExpr) {
		if r.Name == "x" {
			refs = append(refs, r)
		}
	}
	if len(refs) != 2 {
		t.Fatalf("found %d refs to x, want 2", len(refs))
	}
	if refs[0].Ref != innerDecl {
		t.Error("inner x should resolve to inner decl")
	}
	if refs[1].Ref != parm {
		t.Error("outer x should resolve to parameter")
	}
}

func TestParseCastExpr(t *testing.T) {
	root := mustParse(t, `void f(int n) { double d = (double) n / 2; }`)
	ices := cast.FindAll(root, cast.KindImplicitCastExpr)
	var explicit int
	for _, c := range ices {
		if c.TypeName == "double" {
			explicit++
		}
	}
	if explicit != 1 {
		t.Errorf("found %d explicit double casts, want 1", explicit)
	}
}

func TestParseFinalizeIDs(t *testing.T) {
	root := mustParse(t, `void f(int a) { a = a + 1; }`)
	seen := map[int]bool{}
	max := -1
	cast.Walk(root, func(n *cast.Node) bool {
		if seen[n.ID] {
			t.Errorf("duplicate node ID %d", n.ID)
		}
		seen[n.ID] = true
		if n.ID > max {
			max = n.ID
		}
		if n != root && n.Parent == nil {
			t.Errorf("node %s has no parent", n)
		}
		return true
	})
	if max+1 != root.Size() {
		t.Errorf("IDs not dense: max=%d size=%d", max, root.Size())
	}
	if root.ID != 0 {
		t.Errorf("root ID = %d, want 0", root.ID)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"void f( {",
		"void f(void) { int; }",
		"void f(void) { for (;; }",
		"void f(void) { if x; }",
		"void f(void) { a = ; }",
		"void f(void) { do { } (1); }",
		"void f(void) { 1 + ; }",
		"void f(void) {",
		"int 5x;",
		"#pragma omp bogus\nvoid f(void){}",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseUnaryVariants(t *testing.T) {
	root := mustParse(t, `void f(int a, int *p) { a = -a; a = !a; a = ~a; ++a; --a; a++; a--; a = *p; p = &a; }`)
	ops := map[string]int{}
	for _, u := range cast.FindAll(root, cast.KindUnaryOperator) {
		ops[u.Op]++
	}
	for _, want := range []string{"-", "!", "~", "pre++", "pre--", "post++", "post--", "*", "&"} {
		if ops[want] != 1 {
			t.Errorf("unary %q count = %d, want 1", want, ops[want])
		}
	}
}

func TestParseTerminalOrder(t *testing.T) {
	root := mustParse(t, `void f(void) { int x; x = 50; }`)
	terms := cast.Terminals(root)
	// Terminals in source order: VarDecl is a leaf (no init), the DeclRefExpr
	// x, then IntegerLiteral 50.
	var names []string
	for _, n := range terms {
		switch {
		case n.Name != "":
			names = append(names, n.Name)
		case n.Value != "":
			names = append(names, n.Value)
		default:
			names = append(names, n.Kind.String())
		}
	}
	want := []string{"x", "x", "50"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("terminals = %v, want %v", names, want)
	}
}

func TestParseCommaExpr(t *testing.T) {
	root := mustParse(t, `void f(int a, int b) { for (a = 0, b = 0; a < 10; a++, b++) {} }`)
	var commas int
	for _, b := range cast.FindAll(root, cast.KindBinaryOperator) {
		if b.Op == "," {
			commas++
		}
	}
	if commas != 2 {
		t.Errorf("comma operators = %d, want 2", commas)
	}
}

func TestParseSizeof(t *testing.T) {
	root := mustParse(t, `void f(int n) { n = sizeof(double) + sizeof n; }`)
	var count int
	for _, u := range cast.FindAll(root, cast.KindUnaryOperator) {
		if u.Op == "sizeof" {
			count++
		}
	}
	if count != 2 {
		t.Errorf("sizeof count = %d, want 2", count)
	}
}

func TestParseFunctionHelpers(t *testing.T) {
	root := mustParse(t, `int add(int a, int b) { return a + b; }`)
	fn := cast.FindFunction(root, "add")
	if fn == nil {
		t.Fatal("add not found")
	}
	if len(fn.Params()) != 2 {
		t.Errorf("params = %d, want 2", len(fn.Params()))
	}
	if fn.Body() == nil {
		t.Error("body missing")
	}
	if fn.TypeName != "int" {
		t.Errorf("return type = %q", fn.TypeName)
	}
	if cast.FindFunction(root, "nope") != nil {
		t.Error("found nonexistent function")
	}
}

func TestDumpContainsStructure(t *testing.T) {
	root := mustParse(t, `void f(void) { if (1) { } }`)
	s := cast.DumpString(root)
	for _, want := range []string{"TranslationUnitDecl", "FunctionDecl", "IfStmt", "IntegerLiteral"} {
		if !strings.Contains(s, want) {
			t.Errorf("dump missing %q:\n%s", want, s)
		}
	}
}
