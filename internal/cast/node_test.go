package cast

import (
	"strings"
	"testing"
	"testing/quick"

	"paragraph/internal/omp"
)

// buildTree constructs a small tree by hand:
//
//	CompoundStmt
//	├─ DeclStmt
//	│  └─ VarDecl x
//	└─ IfStmt
//	   ├─ BinaryOperator >
//	   ├─ CompoundStmt (then)
//	   └─ CompoundStmt (else)
func buildTree() *Node {
	vd := NewNode(KindVarDecl)
	vd.Name = "x"
	ds := NewNode(KindDeclStmt).AddChild(vd)
	cond := NewNode(KindBinaryOperator)
	cond.Op = ">"
	then := NewNode(KindCompoundStmt)
	els := NewNode(KindCompoundStmt)
	ifs := NewNode(KindIfStmt).AddChild(cond, then, els)
	root := NewNode(KindCompoundStmt).AddChild(ds, ifs)
	root.Finalize()
	return root
}

func TestKindString(t *testing.T) {
	if KindForStmt.String() != "ForStmt" {
		t.Errorf("ForStmt name = %q", KindForStmt.String())
	}
	if KindInvalid.String() != "Invalid" {
		t.Errorf("Invalid name = %q", KindInvalid.String())
	}
	if Kind(-1).String() != "Kind(-1)" {
		t.Errorf("negative kind = %q", Kind(-1).String())
	}
	if NumKinds <= int(KindOMPExecutableDirective) {
		t.Errorf("NumKinds = %d too small", NumKinds)
	}
}

func TestFinalizeAssignsPreorderIDs(t *testing.T) {
	root := buildTree()
	var ids []int
	Walk(root, func(n *Node) bool {
		ids = append(ids, n.ID)
		return true
	})
	for i, id := range ids {
		if id != i {
			t.Errorf("preorder position %d has ID %d", i, id)
		}
	}
}

func TestWalkSkipsChildrenOnFalse(t *testing.T) {
	root := buildTree()
	var visited int
	Walk(root, func(n *Node) bool {
		visited++
		return n.Kind != KindIfStmt // skip the if's children
	})
	// CompoundStmt, DeclStmt, VarDecl, IfStmt = 4.
	if visited != 4 {
		t.Errorf("visited %d nodes, want 4", visited)
	}
	Walk(nil, func(*Node) bool { t.Error("callback on nil walk"); return true })
}

func TestIfParts(t *testing.T) {
	root := buildTree()
	ifs := FindAll(root, KindIfStmt)[0]
	cond, then, els := ifs.IfParts()
	if cond == nil || then == nil || els == nil {
		t.Fatal("IfParts returned nil for three-child if")
	}
	if cond.Op != ">" {
		t.Errorf("cond op = %q", cond.Op)
	}
	// Two-child if has nil else.
	two := NewNode(KindIfStmt).AddChild(NewNode(KindBinaryOperator), NewNode(KindCompoundStmt))
	if _, _, e := two.IfParts(); e != nil {
		t.Error("two-child if should have nil else")
	}
	// Wrong kind returns nils.
	if c, _, _ := root.IfParts(); c != nil {
		t.Error("IfParts on non-if should return nil")
	}
}

func TestForPartsWrongShape(t *testing.T) {
	fs := NewNode(KindForStmt).AddChild(NewNode(KindNullStmt))
	if i, _, _, _ := fs.ForParts(); i != nil {
		t.Error("malformed ForStmt should yield nils")
	}
	ws := NewNode(KindWhileStmt)
	if i, _, _, _ := ws.ForParts(); i != nil {
		t.Error("non-for should yield nils")
	}
}

func TestIsLoopAndTerminal(t *testing.T) {
	for _, k := range []Kind{KindForStmt, KindWhileStmt, KindDoStmt} {
		if !NewNode(k).IsLoop() {
			t.Errorf("%v should be a loop", k)
		}
	}
	if NewNode(KindIfStmt).IsLoop() {
		t.Error("if is not a loop")
	}
	leaf := NewNode(KindIntegerLiteral)
	if !leaf.IsTerminal() {
		t.Error("literal leaf should be terminal")
	}
	if NewNode(KindCompoundStmt).AddChild(leaf).IsTerminal() {
		t.Error("node with children is not terminal")
	}
}

func TestTerminalsOrder(t *testing.T) {
	root := buildTree()
	var terms []*Node
	Walk(root, func(n *Node) bool {
		if n.IsTerminal() {
			terms = append(terms, n)
		}
		return true
	})
	// Leaves in preorder: VarDecl, BinaryOperator(leaf), then-CS, else-CS.
	if len(terms) != 4 {
		t.Fatalf("terminals = %d, want 4", len(terms))
	}
	if terms[0].Kind != KindVarDecl {
		t.Errorf("first terminal = %s", terms[0])
	}
}

func TestSizeMatchesWalk(t *testing.T) {
	root := buildTree()
	if root.Size() != 7 {
		t.Errorf("Size = %d, want 7", root.Size())
	}
}

func TestNodeString(t *testing.T) {
	vd := NewNode(KindVarDecl)
	vd.Name = "x"
	vd.TypeName = "int"
	if got := vd.String(); !strings.Contains(got, "int") || !strings.Contains(got, "x") {
		t.Errorf("String = %q", got)
	}
	lit := NewNode(KindIntegerLiteral)
	lit.Value = "42"
	if !strings.Contains(lit.String(), "42") {
		t.Errorf("String = %q", lit.String())
	}
	op := NewNode(KindBinaryOperator)
	op.Op = "+"
	if !strings.Contains(op.String(), "'+'") {
		t.Errorf("String = %q", op.String())
	}
	dir := NewNode(KindOMPExecutableDirective)
	dir.Dir = omp.DirParallelFor
	if got := dir.String(); got != "OMPExecutableDirective [parallel for]" {
		t.Errorf("String = %q", got)
	}
	clause := NewNode(KindOMPClause)
	clause.Name = omp.ClauseMap.String()
	clause.Clause = omp.ClauseMap
	clause.Op = omp.MapTo.String()
	if got := clause.String(); got != `OMPClause "map"` {
		t.Errorf("String = %q", got)
	}
}

// TestIntClause: a directive's integer clause is strconv.Atoi of the first
// such clause's literal, and 0 when absent or not decimal (0x2, n).
func TestIntClause(t *testing.T) {
	clause := func(kind omp.ClauseKind, arg string) *Node {
		lit := NewNode(KindIntegerLiteral)
		lit.Value = arg
		c := NewNode(KindOMPClause).AddChild(lit)
		c.Clause = kind
		return c
	}
	dir := NewNode(KindOMPExecutableDirective).AddChild(
		clause(omp.ClauseCollapse, "2"), clause(omp.ClauseCollapse, "3"),
		clause(omp.ClauseNumTeams, "0x2"), clause(omp.ClauseNumThreads, "n"),
		NewNode(KindForStmt))
	for kind, want := range map[omp.ClauseKind]int{
		omp.ClauseCollapse: 2, omp.ClauseNumTeams: 0, omp.ClauseNumThreads: 0, omp.ClauseThreadLimit: 0,
	} {
		if got := dir.IntClause(kind); got != want {
			t.Errorf("IntClause(%s) = %d, want %d", kind, got, want)
		}
	}
}

func TestLoopDepth(t *testing.T) {
	inner := NewNode(KindForStmt)
	mid := NewNode(KindCompoundStmt).AddChild(inner)
	outer := NewNode(KindForStmt).AddChild(mid)
	sibling := NewNode(KindForStmt)
	root := NewNode(KindCompoundStmt).AddChild(outer, sibling)
	if d := LoopDepth(root); d != 2 {
		t.Errorf("LoopDepth = %d, want 2", d)
	}
	if d := LoopDepth(NewNode(KindCompoundStmt)); d != 0 {
		t.Errorf("LoopDepth of empty = %d, want 0", d)
	}
}

func TestBodyOnNonFunction(t *testing.T) {
	if NewNode(KindCompoundStmt).Body() != nil {
		t.Error("Body on non-function should be nil")
	}
}

// Property: Finalize assigns dense IDs 0..Size-1 for arbitrary random trees.
func TestFinalizeDenseIDsProperty(t *testing.T) {
	f := func(shape []byte) bool {
		root := NewNode(KindCompoundStmt)
		nodes := []*Node{root}
		for _, b := range shape {
			parent := nodes[int(b)%len(nodes)]
			child := NewNode(KindNullStmt)
			parent.AddChild(child)
			nodes = append(nodes, child)
		}
		root.Finalize()
		seen := make(map[int]bool)
		ok := true
		Walk(root, func(n *Node) bool {
			if n.ID < 0 || n.ID >= len(nodes) || seen[n.ID] {
				ok = false
			}
			seen[n.ID] = true
			if n != root && n.Parent == nil {
				ok = false
			}
			return true
		})
		return ok && len(seen) == len(nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
