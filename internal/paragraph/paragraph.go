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
//
// Construction has two forms over one edge walker and one weight rule. Build
// yields a graph.Graph, labels and all: the DOT/JSON/CLI form and the
// reference. Topology (topology.go) is the same graph split at the line the
// paper draws — V, E and T once per AST, W per (threads, bindings) — for the
// model's front end, which sweeps only W and a few literals over a grid.
package paragraph

import (
	"fmt"
	"math"
	"strings"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/graph"
	"paragraph/internal/omp"
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

// ParseLevel reads a level as a flag spells it (raw, aug, para) or as
// String prints it (checkpoint manifests store that form), ignoring case.
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "raw", "raw ast":
		return LevelRawAST, nil
	case "aug", "augmented ast":
		return LevelAugmentedAST, nil
	case "para", "paragraph":
		return LevelParaGraph, nil
	}
	return 0, fmt.Errorf("paragraph: unknown representation level %q (want raw, aug or para)", s)
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
	// instead. One thread divides by one. Zero alone means "read the
	// directive": the divisor is then its literal num_teams*num_threads
	// clauses — the standalone DOT/CLI reading, which the model's front end
	// (dataset.EncodeSource) never takes: it always passes at least 1.
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
// root (typically a FunctionDecl) at the requested level. It is the DOT/CLI
// path and the oracle the split front end (NewTopology + ChildWeights) is
// tested against; both emit their edges through walkEdges, so there is one
// construction order and one weight rule.
func Build(root *cast.Node, opts Options) (*graph.Graph, error) {
	if root == nil {
		return nil, fmt.Errorf("paragraph: nil AST root")
	}
	g := graph.New(EdgeTypeNames())
	g.KindNames = KindNames()
	id := make(map[*cast.Node]int)
	cast.Walk(root, func(n *cast.Node) bool {
		id[n] = g.AddNode(graph.Node{
			Kind:    int(n.Kind),
			SubKind: subKind(n),
			Feature: nodeFeature(n),
			Label:   nodeLabel(n),
		})
		return true
	})
	rule := newWeightRule(opts)
	rule.trip = func(fs *cast.Node) float64 {
		return analysis.ForTrip(fs, opts.Bindings, rule.defaultTrip).Trip
	}
	walkEdges(root, rule, func(src, dst *cast.Node, t EdgeType, w float64) {
		// A Ref may point at a declaration outside the built subtree.
		if d, ok := id[dst]; ok {
			g.AddEdge(id[src], d, int(t), w)
		}
	})
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("paragraph: built invalid graph: %w", err)
	}
	return g, nil
}

// BuildKernel parses C source and builds the graph of its first function.
func BuildKernel(src string, opts Options) (*graph.Graph, error) {
	fn, err := cparse.ParseFunction(src)
	if err != nil {
		return nil, err
	}
	return Build(fn, opts)
}

// edgeFunc receives a ParaGraph's edges in construction order.
type edgeFunc func(src, dst *cast.Node, t EdgeType, w float64)

// walkEdges emits every edge of root's ParaGraph at the rule's level: the
// Child edges under the rule, then — from LevelAugmentedAST up — the
// NextToken, NextSib, Ref and control-flow edges at weight zero. The order
// within each edge type is the order gnn relations keep, so it is part of
// the encoding.
func walkEdges(root *cast.Node, rule *weightRule, emit edgeFunc) {
	rule.childEdges(root, 1, 0, emit)
	if rule.level >= LevelAugmentedAST {
		nextTokenEdges(root, emit)
		nextSibEdges(root, emit)
		refEdges(root, emit)
		controlFlowEdges(root, emit)
	}
}

// weightRule is ParaGraph's Child-edge weight (§III-A.3), written once: a
// static execution-count estimate per AST region — loop bodies multiplied by
// trip counts, the directive-associated loop's trips divided across threads,
// if-branches halved, every weight capped at maxWeight. Below LevelParaGraph
// every Child edge weighs 1.
type weightRule struct {
	level       Level
	threads     int
	defaultTrip float64
	maxWeight   float64
	// trip is a well-formed ForStmt's iteration count under the bindings;
	// childEdges calls it exactly once per such loop, in walk order.
	trip func(fs *cast.Node) float64
}

func newWeightRule(opts Options) *weightRule {
	r := &weightRule{
		level:       opts.Level,
		threads:     opts.Threads,
		defaultTrip: opts.DefaultTrip,
		maxWeight:   opts.MaxWeight,
	}
	if r.defaultTrip <= 0 {
		r.defaultTrip = defaultTrip
	}
	if r.maxWeight <= 0 {
		r.maxWeight = defaultMaxWeight
	}
	return r
}

// childEdges descends the AST emitting n's Child edges. scale is the static
// execution-count estimate for the current region; pendingPar > 1 means the
// next ForStmt encountered is the directive-associated loop whose iterations
// are divided across pendingPar workers.
func (r *weightRule) childEdges(n *cast.Node, scale, pendingPar float64, emit edgeFunc) {
	// sub emits the edge to child and descends into it; the region under
	// child runs w times.
	sub := func(child *cast.Node, w, pendingPar float64) {
		ew := w
		if r.level < LevelParaGraph {
			ew = 1
		}
		emit(n, child, Child, math.Min(ew, r.maxWeight))
		r.childEdges(child, w, pendingPar, emit)
	}
	init, cond, body, inc := n.ForParts()
	ifCond, then, els := n.IfParts()
	switch {
	case init != nil:
		trip := r.trip(n)
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
		sub(init, scale, 0)
		sub(cond, inner, 0)
		sub(body, inner, 0)
		sub(inc, inner, 0)
	case n.Kind == cast.KindWhileStmt || n.Kind == cast.KindDoStmt:
		for _, c := range n.Children {
			sub(c, scale*r.defaultTrip, 0)
		}
	case ifCond != nil:
		// Paper §III-A.3: each branch taken with probability 1/2.
		sub(ifCond, scale, 0)
		sub(then, scale/2, 0)
		if els != nil {
			sub(els, scale/2, 0)
		}
	case n.Kind == cast.KindOMPExecutableDirective:
		par := r.parallelism(n)
		for _, c := range n.Children {
			sub(c, scale, par)
		}
	case n.Kind == cast.KindForStmt || n.Kind == cast.KindIfStmt:
		// Malformed loop or branch: plain children, and no pending division
		// survives it.
		for _, c := range n.Children {
			sub(c, scale, 0)
		}
	default:
		for _, c := range n.Children {
			sub(c, scale, pendingPar)
		}
	}
}

// parallelism is the worker count dividing the iterations of the loop
// associated with directive n: none when n binds no loop (parallel, single,
// target data), else Options.Threads when positive — one thread divides by
// one — and only for Threads == 0 the directive's own literal
// num_teams*num_threads clauses.
func (r *weightRule) parallelism(n *cast.Node) float64 {
	if !n.Dir.IsLoopAssociated() {
		return 0
	}
	if r.threads > 0 {
		return float64(r.threads)
	}
	teams, threads := n.IntClause(omp.ClauseNumTeams), n.IntClause(omp.ClauseNumThreads)
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

// nextTokenEdges chains terminal nodes (syntax tokens) left to right.
func nextTokenEdges(root *cast.Node, emit edgeFunc) {
	var prev *cast.Node
	cast.Walk(root, func(n *cast.Node) bool {
		if n.IsTerminal() {
			if prev != nil {
				emit(prev, n, NextToken, 0)
			}
			prev = n
		}
		return true
	})
}

// nextSibEdges connects each node to its next sibling.
func nextSibEdges(root *cast.Node, emit edgeFunc) {
	cast.Walk(root, func(n *cast.Node) bool {
		for i := 0; i+1 < len(n.Children); i++ {
			emit(n.Children[i], n.Children[i+1], NextSib, 0)
		}
		return true
	})
}

// refEdges connects DeclRefExpr nodes to their declarations (paper: "Ref edges
// connecting a DeclRefExpr node to where the corresponding variable is
// defined"). The receiver skips references to declarations outside the built
// subtree.
func refEdges(root *cast.Node, emit edgeFunc) {
	cast.Walk(root, func(n *cast.Node) bool {
		if n.Kind == cast.KindDeclRefExpr && n.Ref != nil {
			emit(n, n.Ref, Ref, 0)
		}
		return true
	})
}

// controlFlowEdges adds ForExec/ForNext edges on loops and ConTrue/ConFalse
// on if statements.
func controlFlowEdges(root *cast.Node, emit edgeFunc) {
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
			emit(init, cond, ForExec, 0)
			emit(cond, body, ForExec, 0)
			emit(body, inc, ForNext, 0)
			emit(inc, cond, ForNext, 0)
		case cast.KindWhileStmt:
			// Natural extension of the paper's scheme to while loops:
			// cond→body executes an iteration, body→cond re-checks.
			if len(n.Children) == 2 {
				emit(n.Children[0], n.Children[1], ForExec, 0)
				emit(n.Children[1], n.Children[0], ForNext, 0)
			}
		case cast.KindDoStmt:
			if len(n.Children) == 2 {
				// children are [body, cond].
				emit(n.Children[1], n.Children[0], ForExec, 0)
				emit(n.Children[0], n.Children[1], ForNext, 0)
			}
		case cast.KindIfStmt:
			cond, then, els := n.IfParts()
			if cond == nil {
				return true
			}
			emit(cond, then, ConTrue, 0)
			if els != nil {
				emit(cond, els, ConFalse, 0)
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
		return int(n.Dir)
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
			return literalFeature(v)
		}
	case cast.KindOMPExecutableDirective:
		return float64(analysis.CollapseDepth(n))
	}
	return 0
}

// literalFeature is the feature of a numeric literal of value v.
func literalFeature(v float64) float64 { return math.Log1p(math.Abs(v)) }

func nodeLabel(n *cast.Node) string {
	switch {
	case n.Name != "":
		return n.Kind.String() + ":" + n.Name
	case n.Value != "":
		return n.Kind.String() + ":" + n.Value
	case n.Op != "":
		return n.Kind.String() + ":" + n.Op
	case n.Kind == cast.KindOMPExecutableDirective:
		return "OMP:" + strings.ReplaceAll(n.Dir.String(), " ", "_")
	}
	return n.Kind.String()
}
