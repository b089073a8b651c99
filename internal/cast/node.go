// Package cast defines a Clang-style abstract syntax tree for the C subset
// used by the ParaGraph benchmarks. Node kinds mirror Clang's AST node names
// (CompoundStmt, ForStmt, BinaryOperator, DeclRefExpr, ...), because the
// ParaGraph representation is defined in terms of that vocabulary: terminal
// nodes are "syntax tokens", non-terminals are "syntax nodes", and loop/if
// children follow Clang's ordering conventions.
package cast

import (
	"fmt"
	"strconv"

	"paragraph/internal/clex"
	"paragraph/internal/omp"
)

// Kind identifies the AST node kind, following Clang naming.
type Kind int

// AST node kinds.
const (
	KindInvalid Kind = iota

	// Declarations.
	KindTranslationUnitDecl
	KindFunctionDecl
	KindParmVarDecl
	KindVarDecl

	// Statements.
	KindCompoundStmt
	KindDeclStmt
	KindForStmt
	KindWhileStmt
	KindDoStmt
	KindIfStmt
	KindReturnStmt
	KindBreakStmt
	KindContinueStmt
	KindNullStmt

	// Expressions.
	KindBinaryOperator
	KindCompoundAssignOperator
	KindUnaryOperator
	KindConditionalOperator
	KindParenExpr
	KindImplicitCastExpr
	KindIntegerLiteral
	KindFloatingLiteral
	KindStringLiteral
	KindCharacterLiteral
	KindDeclRefExpr
	KindArraySubscriptExpr
	KindCallExpr
	KindInitListExpr

	// OpenMP executable directives and their clauses. Clang represents
	// clause payloads (map'd array sections, collapse literals, reduction
	// variables) as expression children of the directive; KindOMPClause
	// groups each clause's payload so the graph sees gpu vs gpu_mem
	// variants as structurally different programs.
	KindOMPExecutableDirective
	KindOMPClause

	kindCount // sentinel, keep last
)

var kindNames = [...]string{
	KindInvalid:                "Invalid",
	KindTranslationUnitDecl:    "TranslationUnitDecl",
	KindFunctionDecl:           "FunctionDecl",
	KindParmVarDecl:            "ParmVarDecl",
	KindVarDecl:                "VarDecl",
	KindCompoundStmt:           "CompoundStmt",
	KindDeclStmt:               "DeclStmt",
	KindForStmt:                "ForStmt",
	KindWhileStmt:              "WhileStmt",
	KindDoStmt:                 "DoStmt",
	KindIfStmt:                 "IfStmt",
	KindReturnStmt:             "ReturnStmt",
	KindBreakStmt:              "BreakStmt",
	KindContinueStmt:           "ContinueStmt",
	KindNullStmt:               "NullStmt",
	KindBinaryOperator:         "BinaryOperator",
	KindCompoundAssignOperator: "CompoundAssignOperator",
	KindUnaryOperator:          "UnaryOperator",
	KindConditionalOperator:    "ConditionalOperator",
	KindParenExpr:              "ParenExpr",
	KindImplicitCastExpr:       "ImplicitCastExpr",
	KindIntegerLiteral:         "IntegerLiteral",
	KindFloatingLiteral:        "FloatingLiteral",
	KindStringLiteral:          "StringLiteral",
	KindCharacterLiteral:       "CharacterLiteral",
	KindDeclRefExpr:            "DeclRefExpr",
	KindArraySubscriptExpr:     "ArraySubscriptExpr",
	KindCallExpr:               "CallExpr",
	KindInitListExpr:           "InitListExpr",
	KindOMPExecutableDirective: "OMPExecutableDirective",
	KindOMPClause:              "OMPClause",
}

// NumKinds is the number of distinct node kinds; useful for one-hot or
// embedding feature encoders.
const NumKinds = int(kindCount)

// String returns the Clang-style name of the kind.
func (k Kind) String() string {
	if k > KindInvalid && int(k) < len(kindNames) {
		return kindNames[k]
	}
	if k == KindInvalid {
		return "Invalid"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is a single AST node. Children ordering follows Clang conventions:
//
//   - ForStmt: [init, cond, body, inc] — the order ParaGraph's ForExec and
//     ForNext edges are defined over (paper §III-A.2).
//   - IfStmt: [cond, then] or [cond, then, else].
//   - WhileStmt: [cond, body].
//   - BinaryOperator and CompoundAssignOperator: [lhs, rhs].
//   - FunctionDecl: [ParmVarDecl..., CompoundStmt body].
//   - OMPExecutableDirective: [OMPClause..., associated statement (usually
//     ForStmt)]; a standalone directive (barrier) has no children.
type Node struct {
	Kind     Kind
	Name     string            // declared or referenced identifier, function name
	Value    string            // literal spelling for literal kinds
	Op       string            // operator spelling; an OMPClause's map type or reduction operator
	TypeName string            // type spelling for decls and casts
	Pos      clex.Pos          // source position of the token that started the node
	Children []*Node           // ordered children
	Parent   *Node             // set by Finalize
	Ref      *Node             // DeclRefExpr: the VarDecl/ParmVarDecl it references
	Dir      omp.DirectiveKind // OMPExecutableDirective: which directive
	Clause   omp.ClauseKind    // OMPClause: which clause
	ID       int               // stable preorder index, set by Finalize
}

// NewNode returns a node of the given kind.
func NewNode(kind Kind) *Node { return &Node{Kind: kind} }

// AddChild appends children to the node and returns the node.
func (n *Node) AddChild(children ...*Node) *Node {
	n.Children = append(n.Children, children...)
	return n
}

// IsTerminal reports whether the node is a "syntax token" in the paper's
// sense: a leaf that corresponds to a concrete token (literals, DeclRefExpr,
// break/continue/null statements).
func (n *Node) IsTerminal() bool { return len(n.Children) == 0 }

// IsLoop reports whether the node is a loop construct.
func (n *Node) IsLoop() bool {
	return n.Kind == KindForStmt || n.Kind == KindWhileStmt || n.Kind == KindDoStmt
}

// ForParts returns the init, cond, body and inc children of a ForStmt.
// Missing parts (e.g. `for(;;)`) are NullStmt placeholders inserted by the
// parser, so all four are always non-nil for parser-produced trees.
func (n *Node) ForParts() (init, cond, body, inc *Node) {
	if n.Kind != KindForStmt || len(n.Children) != 4 {
		return nil, nil, nil, nil
	}
	return n.Children[0], n.Children[1], n.Children[2], n.Children[3]
}

// IfParts returns the cond, then and else children of an IfStmt. els is nil
// when there is no else branch.
func (n *Node) IfParts() (cond, then, els *Node) {
	if n.Kind != KindIfStmt || len(n.Children) < 2 {
		return nil, nil, nil
	}
	cond, then = n.Children[0], n.Children[1]
	if len(n.Children) >= 3 {
		els = n.Children[2]
	}
	return cond, then, els
}

// Body returns the CompoundStmt body of a FunctionDecl, or nil.
func (n *Node) Body() *Node {
	if n.Kind != KindFunctionDecl {
		return nil
	}
	for _, c := range n.Children {
		if c.Kind == KindCompoundStmt {
			return c
		}
	}
	return nil
}

// String renders a one-line description of the node.
func (n *Node) String() string {
	s := n.Kind.String()
	switch {
	case n.Name != "" && n.TypeName != "":
		s += fmt.Sprintf(" %s %q", n.TypeName, n.Name)
	case n.Name != "":
		s += fmt.Sprintf(" %q", n.Name)
	case n.Value != "":
		s += fmt.Sprintf(" %s", n.Value)
	case n.Op != "":
		s += fmt.Sprintf(" '%s'", n.Op)
	}
	if n.Kind == KindOMPExecutableDirective {
		s += fmt.Sprintf(" [%s]", n.Dir)
	}
	return s
}

// IntClause returns the integer argument of directive n's first clause of
// the given kind — strconv.Atoi of its literal's spelling — or 0 when there
// is no such clause or its argument is not a decimal integer.
func (n *Node) IntClause(kind omp.ClauseKind) int {
	for _, c := range n.Children {
		if c.Kind == KindOMPClause && c.Clause == kind && len(c.Children) == 1 {
			v, _ := strconv.Atoi(c.Children[0].Value) // 0 on error
			return v
		}
	}
	return 0
}

// Finalize assigns preorder IDs and parent pointers across the whole tree
// rooted at n. It must be called once after construction; the parser does
// this automatically.
func (n *Node) Finalize() {
	id := 0
	var walk func(node, parent *Node)
	walk = func(node, parent *Node) {
		node.Parent = parent
		node.ID = id
		id++
		for _, c := range node.Children {
			walk(c, node)
		}
	}
	walk(n, nil)
}

// Size returns the number of nodes in the subtree rooted at n.
func (n *Node) Size() int {
	count := 0
	Walk(n, func(*Node) bool {
		count++
		return true
	})
	return count
}

// Walk traverses the subtree rooted at n in preorder, calling fn for each
// node. If fn returns false, the node's children are skipped.
func Walk(n *Node, fn func(*Node) bool) {
	if n == nil {
		return
	}
	if !fn(n) {
		return
	}
	for _, c := range n.Children {
		Walk(c, fn)
	}
}

// FindAll returns every node of the given kind in preorder.
func FindAll(root *Node, kind Kind) []*Node {
	var out []*Node
	Walk(root, func(n *Node) bool {
		if n.Kind == kind {
			out = append(out, n)
		}
		return true
	})
	return out
}

// FindFunction returns the FunctionDecl with the given name, or nil.
func FindFunction(root *Node, name string) *Node {
	for _, f := range FindAll(root, KindFunctionDecl) {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// LoopDepth returns the maximum loop-nest depth within the subtree (0 when
// the subtree contains no loops).
func LoopDepth(root *Node) int {
	var depth func(n *Node) int
	depth = func(n *Node) int {
		max := 0
		for _, c := range n.Children {
			if d := depth(c); d > max {
				max = d
			}
		}
		if n.IsLoop() {
			max++
		}
		return max
	}
	return depth(root)
}
