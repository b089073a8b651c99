package cparse

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/omp"
)

// pragmaKernel is the kernel every TestParsePragma row puts its pragma in.
const pragmaKernel = `void k(double *a, double *b, double s, int n, int m) {
    %s
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            a[i*m+j] = b[i*m+j] * s;
}`

// directiveShape renders what the AST records of a directive: its kind, the
// collapse depth and num_teams/num_threads values read from it when they
// are not the defaults, then each clause as name:Op(payload...). A payload
// name the scope does not resolve ends in '?'.
func directiveShape(d *cast.Node) string {
	var b strings.Builder
	b.WriteString(d.Dir.String())
	if k := analysis.CollapseDepth(d); k != 1 {
		fmt.Fprintf(&b, " collapse=%d", k)
	}
	if k := d.IntClause(omp.ClauseNumTeams); k != 0 {
		fmt.Fprintf(&b, " teams=%d", k)
	}
	if k := d.IntClause(omp.ClauseNumThreads); k != 0 {
		fmt.Fprintf(&b, " threads=%d", k)
	}
	var payload func(n *cast.Node) string
	payload = func(n *cast.Node) string {
		switch n.Kind {
		case cast.KindImplicitCastExpr:
			return payload(n.Children[0])
		case cast.KindDeclRefExpr:
			if n.Ref == nil {
				return n.Name + "?"
			}
			return n.Name
		case cast.KindArraySubscriptExpr:
			return payload(n.Children[0]) + "[" + payload(n.Children[1]) + "]"
		case cast.KindBinaryOperator:
			return "(" + payload(n.Children[0]) + n.Op + payload(n.Children[1]) + ")"
		}
		return n.Value
	}
	for i, c := range d.Children {
		if c.Kind != cast.KindOMPClause {
			continue
		}
		if i == 0 {
			b.WriteString(":")
		}
		b.WriteString(" " + c.Name)
		if c.Op != "" {
			b.WriteString(":" + c.Op)
		}
		if len(c.Children) > 0 {
			var args []string
			for _, p := range c.Children {
				args = append(args, payload(p))
			}
			b.WriteString("(" + strings.Join(args, " ") + ")")
		}
	}
	return b.String()
}

// TestParsePragma is the OpenMP pragma grammar, one row per behaviour: the
// directive and clauses a pragma parses to, read back from the AST alone,
// or the positioned error it is refused with.
func TestParsePragma(t *testing.T) {
	t.Run("every_directive", func(t *testing.T) {
		for k := omp.DirParallel; k <= omp.DirMaster; k++ {
			fn := mustParse(t, fmt.Sprintf(pragmaKernel, "#pragma omp "+k.String()))
			dirs := cast.Directives(fn)
			if len(dirs) != 1 || directiveShape(dirs[0]) != k.String() {
				t.Errorf("#pragma omp %s: directives %v", k, dirs)
			}
		}
	})
	for _, c := range []struct{ name, pragma, want string }{
		{"collapse", "parallel for collapse(2)", "parallel for collapse=2: collapse(2)"},
		{"collapse_default", "parallel for", "parallel for"},
		{"collapse_not_decimal", "parallel for collapse(0x2)", "parallel for: collapse(0x2)"},
		{"teams_threads", "target teams distribute parallel for num_teams(128) num_threads(64) thread_limit(64)",
			"target teams distribute parallel for teams=128 threads=64: num_teams(128) num_threads(64) thread_limit(64)"},
		{"threads_symbolic", "parallel for num_threads(n)", "parallel for: num_threads(n)"},
		{"map_clauses", "target teams distribute parallel for map(to: a[0:n], b[0:n]) map(from: b[0:n*m]) map(alloc: s)",
			"target teams distribute parallel for: map:to(a[n] b[n]) map:from(b[(n*m)]) map:alloc(s)"},
		{"map_default_direction", "target map(a, b)", "target: map:tofrom(a b)"},
		{"map_type_optional", "target map(a[0:n])", "target: map:tofrom(a[n])"},
		{"section_expr", "target map(tofrom: a[0:n*m])", "target: map:tofrom(a[(n*m)])"},
		{"section_fallback", "target map(to: a[0:n +])", "target: map:to(a[n +?])"},
		{"reduction", "parallel for reduction(+: s, n)", "parallel for: reduction:+(s n)"},
		{"schedule", "parallel for schedule(static, 16)", "parallel for: schedule(static 16)"},
		{"private_shared", "parallel for private(i, j) shared(a) firstprivate(s) default(none) nowait",
			"parallel for: private(i? j?) shared(a) firstprivate(s) default(none) nowait"},
		{"if_string", `parallel for if(")")`, `parallel for: if(")")`},
		{"comma_separated", "parallel for,collapse(2), num_threads(4)",
			"parallel for collapse=2 threads=4: collapse(2) num_threads(4)"},
		{"comment_after", "parallel for // note", "parallel for"},
		{"comment_inside", "parallel for /* note */ collapse(2)", "parallel for collapse=2: collapse(2)"},
		{"critical_name", "critical (name)", "critical"},
		{"barrier_keeps_no_clauses", "barrier map(to: a[0:n])", "barrier"},
	} {
		t.Run(c.name, func(t *testing.T) {
			fn := mustParse(t, fmt.Sprintf(pragmaKernel, "#pragma omp "+c.pragma))
			dirs := cast.Directives(fn)
			if len(dirs) != 1 {
				t.Fatalf("%d directives", len(dirs))
			}
			if got := directiveShape(dirs[0]); got != c.want {
				t.Errorf("#pragma omp %s\n got %s\nwant %s", c.pragma, got, c.want)
			}
		})
	}
	t.Run("pragma_once", func(t *testing.T) {
		fn := mustParse(t, fmt.Sprintf(pragmaKernel, "#pragma once"))
		if dirs := cast.Directives(fn); len(dirs) != 0 {
			t.Errorf("#pragma once parsed as %d directives", len(dirs))
		}
	})
	t.Run("rejects", func(t *testing.T) {
		for _, c := range []struct{ pragma, say string }{
			{"#pragma omp", "names no directive"},
			{"#pragma omp bogus", `unknown OpenMP directive "bogus"`},
			{"#pragma omp parallel for collapse", `expected "("`},
			{"#pragma omp parallel for collapse(2", "missing ')'"},
			{"#pragma omp parallel for frobnicate(3)", `unknown OpenMP clause "frobnicate"`},
			{"#pragma omp parallel for reduction(s)", "reduction clause missing ':'"},
			{"#pragma omp target map(sideways: a)", `unknown map type "sideways"`},
			{"#pragma omp target map(to: a[0:@@bad@@])", "unexpected character '@'"},
			{"#pragma omp parallel for if(@)", "unexpected character '@'"},
			{"#pragma omp target map(to: a[0:n)", `")" does not close`},
			{"#pragma omp target map(to: a[0:n]])", `"]" does not close`},
			{"#pragma omp parallel(x)", `unknown OpenMP clause "("`},
			{"#pragma omp parallel for collapse,(2)", `expected "("`},
			{"#pragma omp parallel for unknown(3)", `unknown OpenMP clause "unknown"`},
			{"#pragma omp parallel for #junk", "unexpected '#'"},
			{"#pragma omp parallel for reduction(a[0:n])", "reduction clause missing ':'"},
		} {
			_, err := Parse(fmt.Sprintf(pragmaKernel, c.pragma))
			var perr *Error
			if !errors.As(err, &perr) || !strings.Contains(perr.Msg, c.say) || perr.Pos.Line != 2 {
				t.Errorf("%s: err = %v, want a line-2 error saying %q", c.pragma, err, c.say)
			}
		}
	})
}

func TestClausePayloadNodes(t *testing.T) {
	root := mustParse(t, `
void k(double *a, double *b, int n, int m) {
    #pragma omp target teams distribute parallel for collapse(2) num_teams(8) map(tofrom: a[0:n*m]) map(to: b[0:n]) reduction(+: n)
    for (int i = 0; i < n; i++)
        for (int j = 0; j < m; j++)
            a[i * m + j] = b[i];
}`)
	dir := cast.Directives(root)[0]
	clauses := cast.FindAll(dir, cast.KindOMPClause)
	if len(clauses) != 5 {
		t.Fatalf("clause nodes = %d, want 5:\n%s", len(clauses), cast.DumpString(dir))
	}
	byKind := map[omp.ClauseKind][]*cast.Node{}
	for _, c := range clauses {
		byKind[c.Clause] = append(byKind[c.Clause], c)
	}

	// collapse(2): one IntegerLiteral child with value 2.
	col := byKind[omp.ClauseCollapse]
	if len(col) != 1 || len(col[0].Children) != 1 {
		t.Fatalf("collapse clause shape wrong")
	}
	if v, ok := analysis.Eval(col[0].Children[0], nil); !ok || v != 2 {
		t.Errorf("collapse literal = %v, %v", v, ok)
	}

	// map(tofrom: a[0:n*m]): ArraySubscriptExpr with resolved base and a
	// length expression referencing the parameters.
	maps := byKind[omp.ClauseMap]
	if len(maps) != 2 {
		t.Fatalf("map clauses = %d", len(maps))
	}
	sect := maps[0].Children[0]
	if sect.Kind != cast.KindArraySubscriptExpr {
		t.Fatalf("section node = %s", sect)
	}
	base := sect.Children[0]
	if base.Kind != cast.KindDeclRefExpr || base.Name != "a" {
		t.Errorf("section base = %s", base)
	}
	if base.Ref == nil || base.Ref.Kind != cast.KindParmVarDecl {
		t.Error("section base unresolved")
	}
	if v, ok := analysis.Eval(sect.Children[1], analysis.Env{"n": 10, "m": 5}); !ok || v != 50 {
		t.Errorf("section length eval = %v, %v; want 50", v, ok)
	}

	// reduction(+: n): DeclRefExpr child resolved to the parameter, with
	// the reducer recorded.
	red := byKind[omp.ClauseReduction]
	if len(red) != 1 || red[0].Op != "+" {
		t.Fatalf("reduction clause shape wrong: %+v", red)
	}
	if red[0].Children[0].Ref == nil {
		t.Error("reduction variable unresolved")
	}

	// The associated loop is reachable via AssociatedStmt and is the last
	// child.
	loop := analysis.AssociatedStmt(dir)
	if loop == nil || loop.Kind != cast.KindForStmt {
		t.Fatalf("associated stmt = %v", loop)
	}
	if dir.Children[len(dir.Children)-1] != loop {
		t.Error("associated stmt is not the last child")
	}
}

func TestClauseNodesAbsentWithoutClauses(t *testing.T) {
	root := mustParse(t, `
void k(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) a[i] = 0.0;
}`)
	dir := cast.Directives(root)[0]
	if len(dir.Children) != 1 {
		t.Fatalf("children = %d, want 1 (loop only)", len(dir.Children))
	}
	if got := len(cast.FindAll(root, cast.KindOMPClause)); got != 0 {
		t.Errorf("clause nodes = %d, want 0", got)
	}
}

func TestSectionNodeBareName(t *testing.T) {
	root := mustParse(t, `
void k(double *a, int n) {
    #pragma omp target map(tofrom: a) num_threads(4)
    { a[0] = 1.0; }
}`)
	dir := cast.Directives(root)[0]
	maps := cast.FindAll(dir, cast.KindOMPClause)
	var mapClause *cast.Node
	for _, c := range maps {
		if c.Clause == omp.ClauseMap {
			mapClause = c
		}
	}
	if mapClause == nil {
		t.Fatal("no map clause node")
	}
	if mapClause.Children[0].Kind != cast.KindDeclRefExpr {
		t.Errorf("bare map arg = %s, want DeclRefExpr", mapClause.Children[0])
	}
}

func TestEmbeddedExprFallback(t *testing.T) {
	// A section length that is not an expression must not break parsing.
	root := mustParse(t, `
void k(double *a, int n) {
    #pragma omp target teams distribute parallel for map(to: a[0:n +])
    for (int i = 0; i < n; i++) a[i] = 0.0;
}`)
	dir := cast.Directives(root)[0]
	if dir == nil {
		t.Fatal("directive lost")
	}
	// The malformed expression degrades to a raw DeclRefExpr. Search only
	// the clause payload (the loop body has subscripts of its own).
	clause := cast.FindAll(dir, cast.KindOMPClause)[0]
	sect := cast.FindAll(clause, cast.KindArraySubscriptExpr)
	if len(sect) != 1 {
		t.Fatalf("sections = %d", len(sect))
	}
	idx := sect[0].Children[1]
	for idx.Kind == cast.KindImplicitCastExpr { // rvalue wrapping applies here too
		idx = idx.Children[0]
	}
	if idx.Kind != cast.KindDeclRefExpr || idx.Name != "n +" {
		t.Errorf("fallback node = %s", idx)
	}
}

func TestAnalyzerIgnoresClausePayloadCost(t *testing.T) {
	// The n*m multiply inside map(...) must not count as kernel work.
	withMap := mustParse(t, `
void k(double *a, int n, int m) {
    #pragma omp target teams distribute parallel for map(tofrom: a[0:n*m])
    for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;
}`)
	withoutMap := mustParse(t, `
void k(double *a, int n, int m) {
    #pragma omp target teams distribute parallel for
    for (int i = 0; i < n; i++) a[i] = a[i] + 1.0;
}`)
	env := analysis.Env{"n": 100, "m": 100}
	a := analysis.AnalyzeKernel(cast.FindFunction(withMap, "k"), env, 100)
	b := analysis.AnalyzeKernel(cast.FindFunction(withoutMap, "k"), env, 100)
	if a.Flops != b.Flops || a.IntOps != b.IntOps {
		t.Errorf("clause payload leaked into op counts: %+v vs %+v", a, b)
	}
	if a.TransferBytes == 0 || b.TransferBytes != 0 {
		t.Errorf("transfer accounting wrong: %v / %v", a.TransferBytes, b.TransferBytes)
	}
}
