// Package paragraph implements the paper's core contribution: the ParaGraph
// weighted graph representation of HPC kernels (§III).
//
// A ParaGraph is built from a Clang-style AST in three cumulative levels,
// matching the paper's ablation study (§V-C):
//
//   - LevelRawAST: nodes plus Child edges only.
//   - LevelAugmentedAST: adds NextToken, NextSib, Ref, ForExec, ForNext,
//     ConTrue and ConFalse edges.
//   - LevelParaGraph: additionally weights Child edges with static
//     execution-count estimates — loop bodies multiplied by trip counts
//     (divided by the thread count under static scheduling), if-branches
//     divided by two. Non-Child edges carry weight zero, matching the
//     formalization ParaGraph = (V, E, T, W) with W zero off the Child type.
package paragraph

import (
	"fmt"
	"math"
	"strings"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/graph"
)

// EdgeType enumerates ParaGraph's edge types (paper §III-A.2). Child is the
// plain AST parent-child edge and is the only weighted type.
type EdgeType int

// ParaGraph edge types.
const (
	Child EdgeType = iota
	NextToken
	NextSib
	Ref
	ForExec
	ForNext
	ConTrue
	ConFalse

	NumEdgeTypes // sentinel
)

var edgeTypeNames = [NumEdgeTypes]string{
	Child:     "Child",
	NextToken: "NextToken",
	NextSib:   "NextSib",
	Ref:       "Ref",
	ForExec:   "ForExec",
	ForNext:   "ForNext",
	ConTrue:   "ConTrue",
	ConFalse:  "ConFalse",
}

// String returns the edge type name.
func (t EdgeType) String() string {
	if t >= 0 && t < NumEdgeTypes {
		return edgeTypeNames[t]
	}
	return fmt.Sprintf("EdgeType(%d)", int(t))
}

// EdgeTypeNames returns the edge-type name table in EdgeType order.
func EdgeTypeNames() []string {
	names := make([]string, NumEdgeTypes)
	for i := range names {
		names[i] = EdgeType(i).String()
	}
	return names
}

// KindNames returns the node-kind name table in cast.Kind order.
func KindNames() []string {
	names := make([]string, cast.NumKinds)
	for i := range names {
		names[i] = cast.Kind(i).String()
	}
	return names
}

// Level selects how much of the ParaGraph construction to apply; the three
// levels are the paper's ablation treatments (Table IV).
type Level int

// Construction levels.
const (
	LevelRawAST Level = iota
	LevelAugmentedAST
	LevelParaGraph
)

// String names the level as in the paper's tables.
func (l Level) String() string {
	switch l {
	case LevelRawAST:
		return "Raw AST"
	case LevelAugmentedAST:
		return "Augmented AST"
	case LevelParaGraph:
		return "ParaGraph"
	}
	return fmt.Sprintf("Level(%d)", int(l))
}

// Options configures graph construction.
type Options struct {
	// Level selects the construction level; the zero value is LevelRawAST,
	// so most callers set LevelParaGraph explicitly.
	Level Level

	// Threads is the effective parallelism the annotated loop's iterations
	// are statically divided across (paper: "dividing the number of
	// iterations by the number of threads", §III-A.3). For offloaded
	// kernels this is still the per-team thread count, not teams*threads:
	// total GPU parallelism would clamp most annotated-loop weights to 1
	// and collapse different problem sizes onto one graph, and the team
	// count reaches the model as a num_teams literal and a grid feature
	// instead (dataset.EncodeSource is the one caller that decides this).
	// Zero or one means no division.
	Threads int

	// Bindings resolves symbolic loop bounds (parameter values).
	Bindings analysis.Env

	// DefaultTrip is assumed for loops whose trip count cannot be derived.
	// Zero selects the package default of 100.
	DefaultTrip float64

	// MaxWeight caps Child-edge weights to keep extreme nests numerically
	// tame. Zero selects the package default of 1e9.
	MaxWeight float64
}

const (
	defaultTrip      = 100
	defaultMaxWeight = 1e9
)

// Build constructs the graph representation of the AST subtree rooted at
// root (typically a FunctionDecl) at the requested level.
func Build(root *cast.Node, opts Options) (*graph.Graph, error) {
	if root == nil {
		return nil, fmt.Errorf("paragraph: nil AST root")
	}
	if opts.DefaultTrip <= 0 {
		opts.DefaultTrip = defaultTrip
	}
	if opts.MaxWeight <= 0 {
		opts.MaxWeight = defaultMaxWeight
	}
	b := &builder{
		opts: opts,
		g:    graph.New(EdgeTypeNames()),
		id:   make(map[*cast.Node]int),
	}
	b.g.KindNames = KindNames()
	b.addNodes(root)
	b.addChildEdges(root, 1)
	if opts.Level >= LevelAugmentedAST {
		b.addNextToken(root)
		b.addNextSib(root)
		b.addRef(root)
		b.addControlFlow(root)
	}
	if err := b.g.Validate(); err != nil {
		return nil, fmt.Errorf("paragraph: built invalid graph: %w", err)
	}
	return b.g, nil
}

// BuildKernel parses C source and builds the graph of its first function.
func BuildKernel(src string, opts Options) (*graph.Graph, error) {
	fn, err := cparse.ParseFunction(src)
	if err != nil {
		return nil, err
	}
	return Build(fn, opts)
}

type builder struct {
	opts Options
	g    *graph.Graph
	id   map[*cast.Node]int
}

// addNodes creates one graph node per AST node, in preorder.
func (b *builder) addNodes(root *cast.Node) {
	cast.Walk(root, func(n *cast.Node) bool {
		gn := graph.Node{
			Kind:    int(n.Kind),
			SubKind: subKind(n),
			Feature: nodeFeature(n),
			Label:   nodeLabel(n),
		}
		b.id[n] = b.g.AddNode(gn)
		return true
	})
}

// addChildEdges walks the tree adding weighted Child edges. scale is the
// static execution-count estimate for the current region.
func (b *builder) addChildEdges(n *cast.Node, scale float64) {
	weighted := b.opts.Level >= LevelParaGraph
	// parallelism pending division: applied to the outermost loop associated
	// with an OMP loop directive.
	b.childEdgesRec(n, scale, 0, weighted)
}

// childEdgesRec descends the AST. pendingPar > 1 means the next ForStmt
// encountered is the directive-associated loop whose iterations are divided
// across pendingPar workers.
func (b *builder) childEdgesRec(n *cast.Node, scale float64, pendingPar float64, weighted bool) {
	emit := func(child *cast.Node, w float64) {
		if !weighted {
			w = 1
		}
		b.g.AddEdge(b.id[n], b.id[child], int(Child), math.Min(w, b.opts.MaxWeight))
	}
	switch n.Kind {
	case cast.KindForStmt:
		init, cond, body, inc := n.ForParts()
		if init == nil {
			// Malformed ForStmt: fall through to the generic case.
			for _, c := range n.Children {
				emit(c, scale)
				b.childEdgesRec(c, scale, 0, weighted)
			}
			return
		}
		trip := analysis.ForTrip(n, b.opts.Bindings, b.opts.DefaultTrip).Trip
		if trip < 1 {
			trip = 1
		}
		if pendingPar > 1 {
			// Static scheduling: each worker executes ~trip/P iterations.
			trip /= pendingPar
			if trip < 1 {
				trip = 1
			}
		}
		inner := scale * trip
		// Figure 2: init keeps the enclosing weight; cond, body and inc run
		// once per iteration.
		emit(init, scale)
		b.childEdgesRec(init, scale, 0, weighted)
		emit(cond, inner)
		b.childEdgesRec(cond, inner, 0, weighted)
		emit(body, inner)
		b.childEdgesRec(body, inner, 0, weighted)
		emit(inc, inner)
		b.childEdgesRec(inc, inner, 0, weighted)
	case cast.KindWhileStmt, cast.KindDoStmt:
		trip := b.opts.DefaultTrip
		inner := scale * trip
		for _, c := range n.Children {
			emit(c, inner)
			b.childEdgesRec(c, inner, 0, weighted)
		}
	case cast.KindIfStmt:
		cond, then, els := n.IfParts()
		if cond == nil {
			for _, c := range n.Children {
				emit(c, scale)
				b.childEdgesRec(c, scale, 0, weighted)
			}
			return
		}
		// Paper §III-A.3: each branch taken with probability 1/2.
		emit(cond, scale)
		b.childEdgesRec(cond, scale, 0, weighted)
		emit(then, scale/2)
		b.childEdgesRec(then, scale/2, 0, weighted)
		if els != nil {
			emit(els, scale/2)
			b.childEdgesRec(els, scale/2, 0, weighted)
		}
	case cast.KindOMPExecutableDirective:
		par := b.parallelism(n)
		for _, c := range n.Children {
			emit(c, scale)
			b.childEdgesRec(c, scale, par, weighted)
		}
	default:
		for _, c := range n.Children {
			emit(c, scale)
			b.childEdgesRec(c, scale, pendingPar, weighted)
		}
	}
}

// parallelism derives the worker count dividing the associated loop's
// iterations: Options.Threads when set, else the directive's literal
// num_teams*num_threads clauses.
func (b *builder) parallelism(n *cast.Node) float64 {
	if b.opts.Threads > 1 {
		return float64(b.opts.Threads)
	}
	d := n.Dir
	if d == nil || !d.Kind.IsLoopAssociated() {
		return 0
	}
	teams, threads := d.NumTeams(), d.NumThreads()
	switch {
	case teams > 0 && threads > 0:
		return float64(teams * threads)
	case threads > 0:
		return float64(threads)
	case teams > 0:
		return float64(teams)
	}
	return 0
}

// addNextToken chains terminal nodes (syntax tokens) left to right.
func (b *builder) addNextToken(root *cast.Node) {
	terms := cast.Terminals(root)
	for i := 0; i+1 < len(terms); i++ {
		b.g.AddEdge(b.id[terms[i]], b.id[terms[i+1]], int(NextToken), 0)
	}
}

// addNextSib connects each node to its next sibling.
func (b *builder) addNextSib(root *cast.Node) {
	cast.Walk(root, func(n *cast.Node) bool {
		for i := 0; i+1 < len(n.Children); i++ {
			b.g.AddEdge(b.id[n.Children[i]], b.id[n.Children[i+1]], int(NextSib), 0)
		}
		return true
	})
}

// addRef connects DeclRefExpr nodes to their declarations (paper: "Ref edges
// connecting a DeclRefExpr node to where the corresponding variable is
// defined"). References to declarations outside the built subtree are
// skipped.
func (b *builder) addRef(root *cast.Node) {
	cast.Walk(root, func(n *cast.Node) bool {
		if n.Kind == cast.KindDeclRefExpr && n.Ref != nil {
			if declID, ok := b.id[n.Ref]; ok {
				b.g.AddEdge(b.id[n], declID, int(Ref), 0)
			}
		}
		return true
	})
}

// addControlFlow adds ForExec/ForNext edges on loops and ConTrue/ConFalse on
// if statements.
func (b *builder) addControlFlow(root *cast.Node) {
	cast.Walk(root, func(n *cast.Node) bool {
		switch n.Kind {
		case cast.KindForStmt:
			init, cond, body, inc := n.ForParts()
			if init == nil {
				return true
			}
			// ForExec: flow into the next iteration's execution
			// (init→cond, cond→body); ForNext: deciding/advancing the next
			// iteration (body→inc, inc→cond). Paper §III-A.2.
			b.g.AddEdge(b.id[init], b.id[cond], int(ForExec), 0)
			b.g.AddEdge(b.id[cond], b.id[body], int(ForExec), 0)
			b.g.AddEdge(b.id[body], b.id[inc], int(ForNext), 0)
			b.g.AddEdge(b.id[inc], b.id[cond], int(ForNext), 0)
		case cast.KindWhileStmt:
			// Natural extension of the paper's scheme to while loops:
			// cond→body executes an iteration, body→cond re-checks.
			if len(n.Children) == 2 {
				b.g.AddEdge(b.id[n.Children[0]], b.id[n.Children[1]], int(ForExec), 0)
				b.g.AddEdge(b.id[n.Children[1]], b.id[n.Children[0]], int(ForNext), 0)
			}
		case cast.KindDoStmt:
			if len(n.Children) == 2 {
				// children are [body, cond].
				b.g.AddEdge(b.id[n.Children[1]], b.id[n.Children[0]], int(ForExec), 0)
				b.g.AddEdge(b.id[n.Children[0]], b.id[n.Children[1]], int(ForNext), 0)
			}
		case cast.KindIfStmt:
			cond, then, els := n.IfParts()
			if cond == nil {
				return true
			}
			b.g.AddEdge(b.id[cond], b.id[then], int(ConTrue), 0)
			if els != nil {
				b.g.AddEdge(b.id[cond], b.id[els], int(ConFalse), 0)
			}
		}
		return true
	})
}

// operator and directive sub-kind codes give the GNN a within-kind signal
// (which operator, which OpenMP construct) without exploding the kind space.
var opCodes = map[string]int{
	"=": 1, "+": 2, "-": 3, "*": 4, "/": 5, "%": 6,
	"<": 7, ">": 8, "<=": 9, ">=": 10, "==": 11, "!=": 12,
	"&&": 13, "||": 14, "&": 15, "|": 16, "^": 17, "<<": 18, ">>": 19,
	"+=": 20, "-=": 21, "*=": 22, "/=": 23, "%=": 24,
	"&=": 25, "|=": 26, "^=": 27, "<<=": 28, ">>=": 29,
	"pre++": 30, "post++": 31, "pre--": 32, "post--": 33,
	"!": 34, "~": 35, "sizeof": 36, ",": 37,
}

func subKind(n *cast.Node) int {
	switch n.Kind {
	case cast.KindBinaryOperator, cast.KindCompoundAssignOperator, cast.KindUnaryOperator:
		return opCodes[n.Op]
	case cast.KindOMPExecutableDirective:
		if n.Dir != nil {
			return int(n.Dir.Kind)
		}
	case cast.KindOMPClause:
		return int(n.Clause)
	}
	return 0
}

// nodeFeature encodes a scalar per-node signal: log1p of literal magnitudes,
// and collapse depth for OMP directives.
func nodeFeature(n *cast.Node) float64 {
	switch n.Kind {
	case cast.KindIntegerLiteral, cast.KindFloatingLiteral:
		if v, ok := analysis.Eval(n, nil); ok {
			return math.Log1p(math.Abs(v))
		}
	case cast.KindOMPExecutableDirective:
		if n.Dir != nil {
			return float64(n.Dir.CollapseDepth())
		}
	}
	return 0
}

func nodeLabel(n *cast.Node) string {
	switch {
	case n.Name != "":
		return n.Kind.String() + ":" + n.Name
	case n.Value != "":
		return n.Kind.String() + ":" + n.Value
	case n.Op != "":
		return n.Kind.String() + ":" + n.Op
	case n.Dir != nil:
		return "OMP:" + strings.ReplaceAll(n.Dir.Kind.String(), " ", "_")
	}
	return n.Kind.String()
}
