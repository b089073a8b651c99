package paragraph

import (
	"math"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/graph"
)

func build(t *testing.T, src string, opts Options) *graph.Graph {
	t.Helper()
	g, err := BuildKernel(src, opts)
	if err != nil {
		t.Fatalf("BuildKernel: %v", err)
	}
	return g
}

// edgeWeights returns the weights of Child edges from nodes whose label
// matches src to nodes whose label matches dst.
func childWeight(g *graph.Graph, srcLabel, dstLabel string) (float64, bool) {
	for _, e := range g.Edges {
		if e.Type != int(Child) {
			continue
		}
		if g.Nodes[e.Src].Label == srcLabel && g.Nodes[e.Dst].Label == dstLabel {
			return e.Weight, true
		}
	}
	return 0, false
}

func TestRawASTHasOnlyChildEdges(t *testing.T) {
	g := build(t, `void f(int n) { for (int i = 0; i < n; i++) { n = n + 1; } }`,
		Options{Level: LevelRawAST})
	counts := g.CountByType()
	for ty := 1; ty < int(NumEdgeTypes); ty++ {
		if counts[ty] != 0 {
			t.Errorf("RawAST has %d edges of type %v", counts[ty], EdgeType(ty))
		}
	}
	if counts[int(Child)] == 0 {
		t.Error("RawAST has no Child edges")
	}
	// All weights are 1 at this level.
	for _, e := range g.Edges {
		if e.Weight != 1 {
			t.Errorf("RawAST edge weight = %v, want 1", e.Weight)
		}
	}
	// Child edge count is nodes-1 for a tree.
	if counts[int(Child)] != g.NumNodes()-1 {
		t.Errorf("child edges = %d, nodes = %d; tree property violated", counts[int(Child)], g.NumNodes())
	}
}

func TestAugmentedASTHasAllEdgeTypes(t *testing.T) {
	src := `
void f(int n, double *a) {
    for (int i = 0; i < n; i++) {
        if (a[i] > 0.0) {
            a[i] = a[i] * 2.0;
        } else {
            a[i] = 0.0;
        }
    }
}`
	g := build(t, src, Options{Level: LevelAugmentedAST})
	counts := g.CountByType()
	for _, ty := range []EdgeType{Child, NextToken, NextSib, Ref, ForExec, ForNext, ConTrue, ConFalse} {
		if counts[int(ty)] == 0 {
			t.Errorf("AugmentedAST missing %v edges", ty)
		}
	}
	// Augmented level leaves Child weights at 1 and others at 0.
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Weight != 1 {
			t.Errorf("child weight = %v, want 1", e.Weight)
		}
		if e.Type != int(Child) && e.Weight != 0 {
			t.Errorf("%v weight = %v, want 0", EdgeType(e.Type), e.Weight)
		}
	}
}

func TestForEdgeTopology(t *testing.T) {
	// Paper Figure 2 right: ForExec init→cond, cond→body; ForNext body→inc,
	// inc→cond.
	g := build(t, `void f(void) { for (int i = 0; i < 50; i++) { int x; } }`,
		Options{Level: LevelAugmentedAST})
	var forNode graph.Node
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindForStmt) {
			forNode = n
		}
	}
	// Children of ForStmt in order: init(DeclStmt), cond(BinaryOperator),
	// body(CompoundStmt), inc(UnaryOperator).
	var kids []int
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == forNode.ID {
			kids = append(kids, e.Dst)
		}
	}
	if len(kids) != 4 {
		t.Fatalf("ForStmt has %d children, want 4", len(kids))
	}
	init, cond, body, inc := kids[0], kids[1], kids[2], kids[3]
	wantExec := map[[2]int]bool{{init, cond}: true, {cond, body}: true}
	wantNext := map[[2]int]bool{{body, inc}: true, {inc, cond}: true}
	for _, e := range g.Edges {
		switch EdgeType(e.Type) {
		case ForExec:
			if !wantExec[[2]int{e.Src, e.Dst}] {
				t.Errorf("unexpected ForExec %d->%d", e.Src, e.Dst)
			}
			delete(wantExec, [2]int{e.Src, e.Dst})
		case ForNext:
			if !wantNext[[2]int{e.Src, e.Dst}] {
				t.Errorf("unexpected ForNext %d->%d", e.Src, e.Dst)
			}
			delete(wantNext, [2]int{e.Src, e.Dst})
		}
	}
	if len(wantExec) != 0 || len(wantNext) != 0 {
		t.Errorf("missing edges: exec=%v next=%v", wantExec, wantNext)
	}
}

func TestLoopWeights(t *testing.T) {
	// Figure 2: for (int i = 0; i < 50; i++) — init edge weight 1; cond,
	// body, inc edges weight 50.
	g := build(t, `void f(void) { for (int i = 0; i < 50; i++) { int x; } }`,
		Options{Level: LevelParaGraph})
	var forID int
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindForStmt) {
			forID = n.ID
		}
	}
	var ws []float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == forID {
			ws = append(ws, e.Weight)
		}
	}
	want := []float64{1, 50, 50, 50}
	if len(ws) != 4 {
		t.Fatalf("for children = %d", len(ws))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("for child %d weight = %v, want %v", i, ws[i], want[i])
		}
	}
}

func TestIfWeightsInsideLoop(t *testing.T) {
	// Figure 2 middle: an if inside a region executing 50 times: cond edge
	// 50, branch edges 25.
	src := `
void f(double *a) {
    for (int i = 0; i < 50; i++) {
        if (a[i] > 50.0) {
            a[i] = 1.0;
        } else {
            a[i] = 2.0;
        }
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	var ifID int
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindIfStmt) {
			ifID = n.ID
		}
	}
	var ws []float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == ifID {
			ws = append(ws, e.Weight)
		}
	}
	want := []float64{50, 25, 25}
	if len(ws) != 3 {
		t.Fatalf("if children = %d", len(ws))
	}
	for i := range want {
		if ws[i] != want[i] {
			t.Errorf("if child %d weight = %v, want %v", i, ws[i], want[i])
		}
	}
}

func TestThreadDivision(t *testing.T) {
	// Paper: 100 iterations statically scheduled over 4 threads → weight 25
	// inside the loop body.
	src := `
void f(double *a) {
    #pragma omp parallel for
    for (int i = 0; i < 100; i++) {
        a[i] = 0.0;
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph, Threads: 4})
	var forID int
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindForStmt) {
			forID = n.ID
		}
	}
	var bodyW float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == forID &&
			g.Nodes[e.Dst].Kind == int(cast.KindCompoundStmt) {
			bodyW = e.Weight
		}
	}
	if bodyW != 25 {
		t.Errorf("body edge weight = %v, want 25", bodyW)
	}
}

func TestThreadDivisionOnlyOutermostLoop(t *testing.T) {
	src := `
void f(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < 100; i++) {
        for (int j = 0; j < 10; j++) {
            a[i * 10 + j] = 0.0;
        }
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph, Threads: 4})
	// Inner loop body executes (100/4) * 10 = 250 times.
	var innerForID = -1
	for _, e := range g.Edges {
		if e.Type != int(Child) {
			continue
		}
		if g.Nodes[e.Src].Kind == int(cast.KindForStmt) && g.Nodes[e.Dst].Kind == int(cast.KindForStmt) {
			t.Fatal("directly nested for without compound?")
		}
	}
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindForStmt) {
			innerForID = n.ID // preorder: the last ForStmt is the inner one
		}
	}
	var bodyW float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == innerForID &&
			g.Nodes[e.Dst].Kind == int(cast.KindCompoundStmt) {
			bodyW = e.Weight
		}
	}
	if bodyW != 250 {
		t.Errorf("inner body weight = %v, want 250", bodyW)
	}
}

func TestParallelismFromClauses(t *testing.T) {
	src := `
void f(double *a) {
    #pragma omp target teams distribute parallel for num_teams(2) num_threads(5)
    for (int i = 0; i < 100; i++) {
        a[i] = 0.0;
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	var forID int
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindForStmt) {
			forID = n.ID
		}
	}
	var bodyW float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Src == forID &&
			g.Nodes[e.Dst].Kind == int(cast.KindCompoundStmt) {
			bodyW = e.Weight
		}
	}
	if bodyW != 10 { // 100 / (2*5)
		t.Errorf("body weight = %v, want 10", bodyW)
	}
}

// TestOneThreadDividesByOne: only Threads == 0 reads the directive's
// literals; one thread per team is a divisor of one, not "unset".
func TestOneThreadDividesByOne(t *testing.T) {
	src := `
void f(double *a) {
    #pragma omp target teams distribute parallel for num_teams(2) num_threads(5)
    for (int i = 0; i < 100; i++) {
        a[i] = 0.0;
    }
}`
	for threads, want := range map[int]float64{0: 10, 1: 100, 2: 50} {
		g := build(t, src, Options{Level: LevelParaGraph, Threads: threads})
		if w, ok := childWeight(g, "ForStmt", "CompoundStmt"); !ok || w != want {
			t.Errorf("Threads=%d: body weight = %v, want %v", threads, w, want)
		}
	}
}

// TestOnlyLoopDirectivesDivide: Threads divides the iterations of the loop a
// directive binds, so a directive that binds no loop — as analysis counts
// ParallelIters only under loop-associated ones — leaves the loop under it
// undivided, in Build and in the Topology weights alike.
func TestOnlyLoopDirectivesDivide(t *testing.T) {
	for pragma, want := range map[string]float64{
		"single": 800, "critical": 800, "parallel": 800, "target data map(to: a[0:n])": 800,
		"parallel for": 100, "target teams distribute parallel for": 100,
	} {
		src := "void f(double *a, int n) {\n#pragma omp " + pragma +
			"\nfor (int i = 0; i < n; i++) {\n a[i] = 0.0;\n}\n}"
		bindings := analysis.Env{"n": 800}
		g := build(t, src, Options{Level: LevelParaGraph, Threads: 8, Bindings: bindings})
		if w, ok := childWeight(g, "ForStmt", "CompoundStmt"); !ok || w != want {
			t.Errorf("%s: body weight = %v, want %v", pragma, w, want)
		}
		fn, err := cparse.ParseFunction(src)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := NewTopology(fn, LevelParaGraph)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := topo.ChildWeights(8, topo.Trips(bindings))
		if err != nil {
			t.Fatal(err)
		}
		built := g.EdgesOfType(int(Child))
		for i, e := range built {
			if i >= len(ws) || ws[i] != e.Weight {
				t.Errorf("%s: Topology child weights %v, Build's differ at edge %d", pragma, ws, i)
				break
			}
		}
	}
}

func TestBindingsResolveSymbolicBounds(t *testing.T) {
	src := `
void f(double *a, int n) {
    for (int i = 0; i < n; i++) {
        a[i] = 0.0;
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph, Bindings: map[string]float64{"n": 640}})
	found := false
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Weight == 640 {
			found = true
		}
	}
	if !found {
		t.Error("no edge with weight 640; bindings not applied")
	}
}

func TestRefEdges(t *testing.T) {
	src := `
void f(int n) {
    int x;
    x = n + 1;
}`
	g := build(t, src, Options{Level: LevelAugmentedAST})
	refs := g.EdgesOfType(int(Ref))
	// Two refs: x -> VarDecl x, n -> ParmVarDecl n.
	if len(refs) != 2 {
		t.Fatalf("ref edges = %d, want 2", len(refs))
	}
	for _, e := range refs {
		dstKind := cast.Kind(g.Nodes[e.Dst].Kind)
		if dstKind != cast.KindVarDecl && dstKind != cast.KindParmVarDecl {
			t.Errorf("ref edge dst kind = %v", dstKind)
		}
	}
}

func TestNextTokenChain(t *testing.T) {
	g := build(t, `void f(void) { int x; x = 50; }`, Options{Level: LevelAugmentedAST})
	nts := g.EdgesOfType(int(NextToken))
	// Terminals: VarDecl(x), DeclRefExpr(x), IntegerLiteral(50) → 2 edges.
	if len(nts) != 2 {
		t.Fatalf("NextToken edges = %d, want 2", len(nts))
	}
	// Chain property: each edge's dst is the next edge's src.
	if nts[0].Dst != nts[1].Src {
		t.Error("NextToken edges do not chain")
	}
}

func TestNextSibEdges(t *testing.T) {
	g := build(t, `void f(int a, int b, int c) { }`, Options{Level: LevelAugmentedAST})
	sibs := g.EdgesOfType(int(NextSib))
	// FunctionDecl has 4 children (3 parms + body) → 3 NextSib edges.
	if len(sibs) != 3 {
		t.Fatalf("NextSib edges = %d, want 3", len(sibs))
	}
}

func TestConTrueConFalse(t *testing.T) {
	g := build(t, `void f(int x) { if (x > 0) { x = 1; } else { x = 2; } }`,
		Options{Level: LevelAugmentedAST})
	ct := g.EdgesOfType(int(ConTrue))
	cf := g.EdgesOfType(int(ConFalse))
	if len(ct) != 1 || len(cf) != 1 {
		t.Fatalf("ConTrue/ConFalse = %d/%d, want 1/1", len(ct), len(cf))
	}
	// Both originate at the condition.
	if ct[0].Src != cf[0].Src {
		t.Error("ConTrue and ConFalse should share the condition source")
	}
	// If without else: no ConFalse.
	g2 := build(t, `void f(int x) { if (x > 0) { x = 1; } }`, Options{Level: LevelAugmentedAST})
	if len(g2.EdgesOfType(int(ConFalse))) != 0 {
		t.Error("if-without-else should have no ConFalse edge")
	}
	if len(g2.EdgesOfType(int(ConTrue))) != 1 {
		t.Error("if-without-else should have a ConTrue edge")
	}
}

func TestWhileAndDoControlFlow(t *testing.T) {
	g := build(t, `void f(int n) { while (n > 0) { n--; } do { n++; } while (n < 10); }`,
		Options{Level: LevelAugmentedAST})
	if len(g.EdgesOfType(int(ForExec))) != 2 {
		t.Errorf("ForExec edges = %d, want 2 (one per loop)", len(g.EdgesOfType(int(ForExec))))
	}
	if len(g.EdgesOfType(int(ForNext))) != 2 {
		t.Errorf("ForNext edges = %d, want 2", len(g.EdgesOfType(int(ForNext))))
	}
}

func TestNestedLoopWeightsMultiply(t *testing.T) {
	src := `
void f(double *a) {
    for (int i = 0; i < 10; i++) {
        for (int j = 0; j < 20; j++) {
            a[i * 20 + j] = 0.0;
        }
    }
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	// The innermost assignment's Child edge weight should be 10*20 = 200.
	var maxW float64
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Weight > maxW {
			maxW = e.Weight
		}
	}
	if maxW != 200 {
		t.Errorf("max child weight = %v, want 200", maxW)
	}
}

func TestMaxWeightCap(t *testing.T) {
	src := `
void f(double *a) {
    for (int i = 0; i < 100000; i++)
        for (int j = 0; j < 100000; j++)
            for (int k = 0; k < 100000; k++)
                a[0] = 1.0;
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	var maxW float64
	for _, e := range g.Edges {
		maxW = max(maxW, e.Weight)
	}
	if maxW != maxWeight {
		t.Errorf("max weight %v, want the cap %v (the innermost body runs 1e15 times)", maxW, float64(maxWeight))
	}
}

func TestDefaultTripUsedForUnknownBounds(t *testing.T) {
	src := `
void f(double *a, int n) {
    for (int i = 0; i < n; i++) { a[i] = 0.0; }
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	found := false
	for _, e := range g.Edges {
		if e.Type == int(Child) && e.Weight == analysis.DefaultTrip {
			found = true
		}
	}
	if !found {
		t.Errorf("default trip %v not used for unbound n", analysis.DefaultTrip)
	}
}

func TestNodeFeaturesAndSubKinds(t *testing.T) {
	g := build(t, `void f(int x) { x = x + 50; }`, Options{Level: LevelParaGraph})
	var plusSeen, assignSeen, litFeature bool
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindBinaryOperator) {
			if n.SubKind == opCodes["+"] {
				plusSeen = true
			}
			if n.SubKind == opCodes["="] {
				assignSeen = true
			}
		}
		if n.Kind == int(cast.KindIntegerLiteral) {
			want := math.Log1p(50)
			if math.Abs(n.Feature-want) < 1e-9 {
				litFeature = true
			}
		}
	}
	if !plusSeen || !assignSeen {
		t.Error("operator subkinds missing")
	}
	if !litFeature {
		t.Error("literal feature missing")
	}
}

func TestDirectiveNodeInGraph(t *testing.T) {
	src := `
void f(double *a) {
    #pragma omp target teams distribute parallel for collapse(2)
    for (int i = 0; i < 10; i++)
        for (int j = 0; j < 10; j++)
            a[i * 10 + j] = 0.0;
}`
	g := build(t, src, Options{Level: LevelParaGraph})
	var found bool
	for _, n := range g.Nodes {
		if n.Kind == int(cast.KindOMPExecutableDirective) {
			found = true
			if n.Feature != 2 {
				t.Errorf("directive feature (collapse) = %v, want 2", n.Feature)
			}
		}
	}
	if !found {
		t.Error("no OMP directive node in graph")
	}
}

func TestTransferVariantsProduceDistinctGraphs(t *testing.T) {
	// The gpu and gpu_mem variants of a kernel differ only in map clauses;
	// the representation must expose that difference (otherwise a cost
	// model cannot charge for data transfer).
	resident := `
void k(double *a, int n) {
    #pragma omp target teams distribute parallel for num_teams(8) num_threads(64)
    for (int i = 0; i < n; i++) a[i] = a[i] * 2.0;
}`
	withMem := `
void k(double *a, int n) {
    #pragma omp target teams distribute parallel for num_teams(8) num_threads(64) map(tofrom: a[0:n])
    for (int i = 0; i < n; i++) a[i] = a[i] * 2.0;
}`
	opts := Options{Level: LevelParaGraph, Bindings: map[string]float64{"n": 1024}}
	g1 := build(t, resident, opts)
	g2 := build(t, withMem, opts)
	if g2.NumNodes() <= g1.NumNodes() {
		t.Errorf("map clause added no nodes: %d vs %d", g1.NumNodes(), g2.NumNodes())
	}
	var clauseNodes int
	for _, n := range g2.Nodes {
		if n.Kind == int(cast.KindOMPClause) {
			clauseNodes++
		}
	}
	// num_teams, num_threads (thread_limit too) and map clauses all appear.
	if clauseNodes < 3 {
		t.Errorf("clause nodes = %d, want >= 3", clauseNodes)
	}
	// The mapped array's DeclRefExpr inside the clause links back to the
	// parameter via a Ref edge.
	refs := g2.EdgesOfType(int(Ref))
	if len(refs) <= len(g1.EdgesOfType(int(Ref))) {
		t.Error("map clause added no Ref edges")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, Options{}); err == nil {
		t.Error("Build(nil) should fail")
	}
	if _, err := BuildKernel("void f( {", Options{}); err == nil {
		t.Error("BuildKernel on bad source should fail")
	}
}

func TestLevelAndEdgeTypeStrings(t *testing.T) {
	if LevelRawAST.String() != "Raw AST" || LevelParaGraph.String() != "ParaGraph" {
		t.Error("level names wrong")
	}
	if Level(9).String() != "Level(9)" {
		t.Error("out-of-range level name wrong")
	}
	if Child.String() != "Child" || ConFalse.String() != "ConFalse" {
		t.Error("edge type names wrong")
	}
	if EdgeType(99).String() != "EdgeType(99)" {
		t.Error("out-of-range edge type name wrong")
	}
	names := EdgeTypeNames()
	if len(names) != int(NumEdgeTypes) || names[int(Ref)] != "Ref" {
		t.Errorf("EdgeTypeNames = %v", names)
	}
	kinds := KindNames()
	if kinds[int(cast.KindForStmt)] != "ForStmt" {
		t.Errorf("KindNames broken: %v", kinds[int(cast.KindForStmt)])
	}
}

func TestGraphValidatesOnAllLevels(t *testing.T) {
	src := `
void k(double *a, double *b, int n, int m) {
    #pragma omp target teams distribute parallel for collapse(2) map(tofrom: a[0:n*m]) map(to: b[0:n*m])
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < m; j++) {
            double acc = 0.0;
            if (i > j) {
                acc = a[i * m + j] * 2.0;
            } else {
                acc = b[i * m + j] + 1.0;
            }
            a[i * m + j] = sqrt(acc);
        }
    }
}`
	for _, level := range []Level{LevelRawAST, LevelAugmentedAST, LevelParaGraph} {
		g := build(t, src, Options{Level: level, Bindings: map[string]float64{"n": 100, "m": 100}, Threads: 8})
		if err := g.Validate(); err != nil {
			t.Errorf("level %v: %v", level, err)
		}
		if g.NumNodes() == 0 {
			t.Errorf("level %v: empty graph", level)
		}
	}
}
