package analysis

import (
	"strings"

	"paragraph/internal/cast"
	"paragraph/internal/omp"
)

// KernelCost summarizes the statically estimated dynamic behaviour of one
// kernel under a concrete parameter binding. Counts are execution-weighted:
// an add inside a 1000-iteration loop contributes 1000.
type KernelCost struct {
	Flops     float64 // floating-point arithmetic operations
	IntOps    float64 // integer arithmetic operations
	Loads     float64 // array-element reads
	Stores    float64 // array-element writes
	Branches  float64 // if-statement evaluations
	Calls     float64 // function calls
	MathCalls float64 // transcendental calls (sqrt, exp, ...), also in Calls

	MaxLoopDepth  int     // deepest loop nest
	TotalIters    float64 // total loop iterations across the kernel
	ParallelIters float64 // iteration space distributed by the OMP directive
	CollapseDepth int     // collapse depth of the first loop directive (1 if none)
	IsOffload     bool    // kernel contains a target directive
	TransferBytes float64 // host<->device bytes from map clauses (8-byte elems; tofrom counts both directions)
	MappedArrays  int     // number of mapped array sections (transfer latency count)
	ReductionOps  int     // number of reduction clauses
}

// mathFunctions are calls costed as transcendental operations.
var mathFunctions = map[string]bool{
	"sqrt": true, "sqrtf": true, "exp": true, "expf": true, "log": true,
	"logf": true, "pow": true, "powf": true, "sin": true, "cos": true,
	"tan": true, "fabs": true, "fabsf": true, "floor": true, "ceil": true,
	"atan": true, "atan2": true, "fmod": true, "rsqrt": true,
}

// DefaultTrip is the iteration count the static rule assumes for a loop
// whose bound it cannot resolve (§III-A.3), wherever the rule runs: the
// ParaGraph Child weights, COMPOFF's features and the simulator's ground
// truth.
const DefaultTrip = 100

// AnalyzeKernel statically analyzes the body of fn (a FunctionDecl) under
// env. Loops with unresolvable bounds are assumed to run defaultTrip
// iterations; every caller outside tests passes DefaultTrip.
func AnalyzeKernel(fn *cast.Node, env Env, defaultTrip float64) KernelCost {
	var kc KernelCost
	kc.CollapseDepth = 1
	if fn == nil {
		return kc
	}
	body := fn.Body()
	if body == nil {
		body = fn // allow analyzing a bare statement tree
	}
	kc.MaxLoopDepth = cast.LoopDepth(body)
	a := &analyzer{env: env, defaultTrip: defaultTrip, kc: &kc}
	a.stmt(body, 1)
	return kc
}

type analyzer struct {
	env         Env
	defaultTrip float64
	kc          *KernelCost
}

// stmt walks statements, carrying the execution-count multiplier.
func (a *analyzer) stmt(n *cast.Node, mult float64) {
	if n == nil {
		return
	}
	switch n.Kind {
	case cast.KindCompoundStmt, cast.KindDeclStmt:
		for _, c := range n.Children {
			a.stmt(c, mult)
		}
	case cast.KindVarDecl:
		for _, c := range n.Children {
			a.expr(c, mult, false)
		}
	case cast.KindForStmt:
		init, cond, body, inc := n.ForParts()
		info := ForTrip(n, a.env, a.defaultTrip)
		a.stmt(init, mult)
		inner := float64(mult * info.Trip)
		a.kc.TotalIters += inner
		a.expr(cond, inner, false)
		a.stmt(body, inner)
		a.expr(inc, inner, false)
	case cast.KindWhileStmt:
		inner := float64(mult * a.defaultTrip)
		a.kc.TotalIters += inner
		a.expr(n.Children[0], inner, false)
		a.stmt(n.Children[1], inner)
	case cast.KindDoStmt:
		inner := float64(mult * a.defaultTrip)
		a.kc.TotalIters += inner
		a.stmt(n.Children[0], inner)
		a.expr(n.Children[1], inner, false)
	case cast.KindIfStmt:
		a.kc.Branches += mult
		cond, then, els := n.IfParts()
		a.expr(cond, mult, false)
		a.stmt(then, mult/2)
		a.stmt(els, mult/2)
	case cast.KindReturnStmt:
		for _, c := range n.Children {
			a.expr(c, mult, false)
		}
	case cast.KindOMPExecutableDirective:
		a.directive(n, mult)
	case cast.KindOMPClause:
		// Clause payloads are declarative, not executed per iteration;
		// the directive accounts their costs (transfer volume).
	case cast.KindBreakStmt, cast.KindContinueStmt, cast.KindNullStmt:
		// no cost
	default:
		// Expression statement.
		a.expr(n, mult, false)
	}
}

// directive records offload/transfer/parallel-iteration facts, then walks the
// associated statement. Multipliers are NOT divided by the parallelism here:
// KernelCost reports total dynamic work; the simulator divides by effective
// parallelism per machine model.
func (a *analyzer) directive(n *cast.Node, mult float64) {
	if n.Dir.IsTarget() {
		a.kc.IsOffload = true
	}
	for _, c := range n.Children {
		switch {
		case c.Kind != cast.KindOMPClause:
		case c.Clause == omp.ClauseMap && c.Op != omp.MapAlloc.String():
			a.mapClause(c)
		case c.Clause == omp.ClauseReduction:
			a.kc.ReductionOps++
		}
	}
	if loop := AssociatedStmt(n); loop != nil && n.Dir.IsLoopAssociated() {
		depth := CollapseDepth(n)
		a.kc.CollapseDepth = depth
		iters := 1.0
		for i := 0; i < depth && loop != nil && loop.Kind == cast.KindForStmt; i++ {
			iters *= ForTrip(loop, a.env, a.defaultTrip).Trip
			loop = firstLoopChild(loop)
		}
		if iters > a.kc.ParallelIters {
			a.kc.ParallelIters = iters
		}
	}
	for _, c := range n.Children {
		a.stmt(c, mult)
	}
}

// CollapseDepth is how many loops directive n binds: its collapse(k)
// argument, or 1 when it has none or k is not a positive integer.
func CollapseDepth(n *cast.Node) int {
	if k := n.IntClause(omp.ClauseCollapse); k >= 1 {
		return k
	}
	return 1
}

// mapClause prices one map clause from the payload cparse built for it:
// per mapped array, 8 bytes per element of the section's length. A bare
// name, or a length that does not evaluate to a positive count, is one
// element.
func (a *analyzer) mapClause(clause *cast.Node) {
	// tofrom crosses the link twice: host→device before the region and
	// device→host after it.
	factor := 1.0
	if clause.Op == omp.MapToFrom.String() {
		factor = 2
	}
	for _, sect := range clause.Children {
		elems := 1.0
		if sect.Kind == cast.KindArraySubscriptExpr {
			if v, ok := Eval(sect.Children[1], a.env); ok && v > 0 {
				elems = v
			}
		}
		a.kc.TransferBytes += float64(8 * factor * elems)
		a.kc.MappedArrays++
	}
}

// AssociatedStmt returns the statement a directive binds to: the last
// non-clause child (clause payload nodes precede it), or nil for standalone
// directives.
func AssociatedStmt(n *cast.Node) *cast.Node {
	if n.Kind != cast.KindOMPExecutableDirective {
		return nil
	}
	for i := len(n.Children) - 1; i >= 0; i-- {
		if n.Children[i].Kind != cast.KindOMPClause {
			return n.Children[i]
		}
	}
	return nil
}

// firstLoopChild returns the first ForStmt nested directly in fs's body
// (possibly through a CompoundStmt), for walking collapsed nests.
func firstLoopChild(fs *cast.Node) *cast.Node {
	_, _, body, _ := fs.ForParts()
	if body == nil {
		return nil
	}
	if body.Kind == cast.KindForStmt {
		return body
	}
	if body.Kind == cast.KindCompoundStmt {
		for _, c := range body.Children {
			if c.Kind == cast.KindForStmt {
				return c
			}
		}
	}
	return nil
}

// expr accumulates operation counts for an expression subtree. store marks
// that the current node is a write target.
func (a *analyzer) expr(n *cast.Node, mult float64, store bool) {
	if n == nil {
		return
	}
	switch n.Kind {
	case cast.KindBinaryOperator, cast.KindCompoundAssignOperator:
		isAssign := n.Op == "=" || strings.HasSuffix(n.Op, "=") &&
			n.Op != "==" && n.Op != "!=" && n.Op != "<=" && n.Op != ">="
		if isAssign {
			a.expr(n.Children[0], mult, true)
			a.expr(n.Children[1], mult, false)
			if n.Kind == cast.KindCompoundAssignOperator {
				a.countArith(n, mult) // the implied read-modify-write op
			}
			return
		}
		a.countArith(n, mult)
		a.expr(n.Children[0], mult, false)
		a.expr(n.Children[1], mult, false)
	case cast.KindUnaryOperator:
		switch n.Op {
		case "pre++", "post++", "pre--", "post--":
			a.kc.IntOps += mult
		case "-", "~", "!":
			a.countArith(n, mult)
		}
		for _, c := range n.Children {
			a.expr(c, mult, store)
		}
	case cast.KindArraySubscriptExpr:
		if store {
			a.kc.Stores += mult
		} else {
			a.kc.Loads += mult
		}
		// Index arithmetic is integer work; the base is not a memory op
		// itself.
		a.kc.IntOps += mult // address computation
		a.expr(n.Children[1], mult, false)
	case cast.KindCallExpr:
		a.kc.Calls += mult
		if mathFunctions[n.Name] {
			a.kc.MathCalls += mult
		}
		for _, c := range n.Children[1:] {
			a.expr(c, mult, false)
		}
	case cast.KindConditionalOperator:
		a.kc.Branches += mult
		a.expr(n.Children[0], mult, false)
		a.expr(n.Children[1], mult/2, false)
		a.expr(n.Children[2], mult/2, false)
	case cast.KindImplicitCastExpr, cast.KindParenExpr:
		for _, c := range n.Children {
			a.expr(c, mult, store)
		}
	case cast.KindDeclStmt:
		a.stmt(n, mult)
	default:
		for _, c := range n.Children {
			a.expr(c, mult, store)
		}
	}
}

// countArith classifies an arithmetic operation as floating-point or integer
// from operand types.
func (a *analyzer) countArith(n *cast.Node, mult float64) {
	switch n.Op {
	case ",", "=":
		return
	}
	if isFloatExpr(n) {
		a.kc.Flops += mult
	} else {
		a.kc.IntOps += mult
	}
}

// isFloatExpr reports whether the expression subtree involves floating-point
// values, judged from literals and declared types.
func isFloatExpr(n *cast.Node) bool {
	found := false
	cast.Walk(n, func(m *cast.Node) bool {
		if found {
			return false
		}
		switch m.Kind {
		case cast.KindFloatingLiteral:
			found = true
		case cast.KindDeclRefExpr:
			if m.Ref != nil && isFloatType(m.Ref.TypeName) {
				found = true
			}
		case cast.KindImplicitCastExpr:
			if isFloatType(m.TypeName) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isFloatType(ty string) bool {
	return strings.Contains(ty, "double") || strings.Contains(ty, "float")
}
