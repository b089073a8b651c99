// Package analysis provides static analyses over the C AST: constant
// expression evaluation under a parameter binding environment, loop
// trip-count extraction, and whole-kernel cost summaries (operation counts,
// memory traffic, transfer volumes). These feed three consumers: ParaGraph's
// Child-edge weights, the COMPOFF baseline's engineered features, and the
// runtime simulator.
package analysis

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"paragraph/internal/cast"
)

// Env binds parameter/variable names to concrete numeric values, used to
// resolve symbolic loop bounds such as `for (i = 0; i < n; i++)` at dataset
// generation time.
type Env map[string]float64

// Key renders the bindings deterministically (sorted name=value pairs), so
// environments that bind the same identifiers to the same values share a key.
func (e Env) Key() string {
	names := make([]string, 0, len(e))
	for name := range e {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	var num [32]byte
	for _, name := range names {
		// name=value; with the value as %g renders it: shortest 'g'.
		b.WriteString(name)
		b.WriteByte('=')
		b.Write(strconv.AppendFloat(num[:0], e[name], 'g', -1, 64))
		b.WriteByte(';')
	}
	return b.String()
}

// Eval statically evaluates an expression subtree. It returns the value and
// true when the expression is a compile-time constant under env, or 0 and
// false when it references unknown names or unsupported constructs.
func Eval(n *cast.Node, env Env) (float64, bool) {
	if n == nil {
		return 0, false
	}
	switch n.Kind {
	case cast.KindIntegerLiteral:
		return parseIntLiteral(n.Value)
	case cast.KindFloatingLiteral:
		v, err := strconv.ParseFloat(strings.TrimRight(n.Value, "fFlL"), 64)
		if err != nil {
			return 0, false
		}
		return v, true
	case cast.KindCharacterLiteral:
		if len(n.Value) >= 3 {
			return float64(n.Value[1]), true
		}
		return 0, false
	case cast.KindDeclRefExpr:
		if v, ok := env[n.Name]; ok {
			return v, true
		}
		// Fall back to the declaration's constant initializer if any.
		if n.Ref != nil && n.Ref.Kind == cast.KindVarDecl && len(n.Ref.Children) == 1 {
			return Eval(n.Ref.Children[0], env)
		}
		return 0, false
	case cast.KindImplicitCastExpr, cast.KindParenExpr:
		if len(n.Children) == 1 {
			return Eval(n.Children[0], env)
		}
		return 0, false
	case cast.KindUnaryOperator:
		if len(n.Children) != 1 {
			return 0, false
		}
		if n.Op == "sizeof" {
			// sizeof's operand is a type reference, not an evaluable
			// expression; resolve it directly.
			return sizeofValue(n.Children[0]), true
		}
		v, ok := Eval(n.Children[0], env)
		if !ok {
			return 0, false
		}
		switch n.Op {
		case "-":
			return -v, true
		case "+":
			return v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		case "~":
			return float64(^int64(v)), true
		}
		return 0, false
	case cast.KindBinaryOperator:
		if len(n.Children) != 2 {
			return 0, false
		}
		a, okA := Eval(n.Children[0], env)
		b, okB := Eval(n.Children[1], env)
		if !okA || !okB {
			return 0, false
		}
		switch n.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if isFloatExpr(n) {
				if b == 0 {
					return 0, false
				}
				return a / b, true
			}
			// Two integers: C truncates the quotient toward zero.
			if int64(b) == 0 {
				return 0, false
			}
			return float64(int64(a) / int64(b)), true
		case "%":
			if int64(b) == 0 {
				return 0, false
			}
			return float64(int64(a) % int64(b)), true
		case "<<":
			return float64(int64(a) << uint(int64(b))), true
		case ">>":
			return float64(int64(a) >> uint(int64(b))), true
		case "<":
			return boolVal(a < b), true
		case ">":
			return boolVal(a > b), true
		case "<=":
			return boolVal(a <= b), true
		case ">=":
			return boolVal(a >= b), true
		case "==":
			return boolVal(a == b), true
		case "!=":
			return boolVal(a != b), true
		case "&&":
			return boolVal(a != 0 && b != 0), true
		case "||":
			return boolVal(a != 0 || b != 0), true
		case "&":
			return float64(int64(a) & int64(b)), true
		case "|":
			return float64(int64(a) | int64(b)), true
		case "^":
			return float64(int64(a) ^ int64(b)), true
		}
		return 0, false
	case cast.KindConditionalOperator:
		if len(n.Children) != 3 {
			return 0, false
		}
		c, ok := Eval(n.Children[0], env)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return Eval(n.Children[1], env)
		}
		return Eval(n.Children[2], env)
	}
	return 0, false
}

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func parseIntLiteral(s string) (float64, bool) {
	s = strings.TrimRight(s, "uUlL")
	var v int64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseInt(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseInt(s, 10, 64)
	}
	if err != nil {
		return 0, false
	}
	return float64(v), true
}

// sizeofValue returns the byte size of the type named by a sizeof operand.
// Unknown types get 8 (the dominant double/pointer case in the kernels).
func sizeofValue(n *cast.Node) float64 {
	name := n.TypeName
	if name == "" {
		name = n.Name
	}
	switch {
	case strings.Contains(name, "*"):
		return 8
	case strings.Contains(name, "double"), strings.Contains(name, "long"), strings.Contains(name, "size_t"):
		return 8
	case strings.Contains(name, "float"), strings.Contains(name, "int"):
		return 4
	case strings.Contains(name, "short"):
		return 2
	case strings.Contains(name, "char"):
		return 1
	}
	return 8
}

// LoopInfo describes one for-loop's statically derived iteration behaviour.
type LoopInfo struct {
	Var   string  // loop counter name, "" when unrecognized
	Start float64 // initial counter value
	Bound float64 // loop bound from the condition
	Step  float64 // per-iteration counter delta (always positive magnitude)
	Trip  float64 // estimated iteration count
	Known bool    // whether Trip was derived (vs. defaulted)
}

// ForTrip derives the trip count of a ForStmt under env. When the loop does
// not match the canonical `for (i = a; i OP b; i±=s)` shapes, it returns
// Known=false with Trip=defaultTrip.
func ForTrip(fs *cast.Node, env Env, defaultTrip float64) LoopInfo {
	info := LoopInfo{Trip: defaultTrip}
	if fs == nil || fs.Kind != cast.KindForStmt {
		return info
	}
	init, cond, _, inc := fs.ForParts()
	if init == nil {
		return info
	}

	// Init: `int i = a` (DeclStmt>VarDecl with init) or `i = a`.
	var counter string
	var start float64
	var haveStart bool
	switch init.Kind {
	case cast.KindDeclStmt:
		if len(init.Children) == 1 && init.Children[0].Kind == cast.KindVarDecl &&
			len(init.Children[0].Children) == 1 {
			counter = init.Children[0].Name
			start, haveStart = Eval(init.Children[0].Children[0], env)
		}
	case cast.KindBinaryOperator:
		if init.Op == "=" && init.Children[0].Kind == cast.KindDeclRefExpr {
			counter = init.Children[0].Name
			start, haveStart = Eval(init.Children[1], env)
		}
	}
	if counter == "" || !haveStart {
		return info
	}
	info.Var = counter
	info.Start = start

	// Condition: `i OP bound` or `bound OP i`.
	if cond == nil || cond.Kind != cast.KindBinaryOperator {
		return info
	}
	lhsName := refName(cond.Children[0])
	rhsName := refName(cond.Children[1])
	var bound float64
	var haveBound bool
	op := cond.Op
	switch {
	case lhsName == counter:
		bound, haveBound = Eval(cond.Children[1], env)
	case rhsName == counter:
		bound, haveBound = Eval(cond.Children[0], env)
		op = flipCmp(op)
	}
	if !haveBound {
		return info
	}
	info.Bound = bound

	// Increment: i++/i--/i+=s/i-=s/i=i+s/i=i*s.
	step, increasing, ok := stepOf(inc, counter, env)
	if !ok || step == 0 {
		return info
	}
	info.Step = math.Abs(step)

	var trips float64
	switch op {
	case "<":
		trips = math.Ceil((bound - start) / math.Abs(step))
	case "<=":
		trips = math.Floor((bound-start)/math.Abs(step)) + 1
	case ">":
		trips = math.Ceil((start - bound) / math.Abs(step))
	case ">=":
		trips = math.Floor((start-bound)/math.Abs(step)) + 1
	case "!=":
		trips = math.Abs(bound-start) / math.Abs(step)
	default:
		return info
	}
	// Direction sanity: an increasing loop with a ">" bound never executes.
	if (op == "<" || op == "<=") && !increasing {
		trips = 0
	}
	if (op == ">" || op == ">=") && increasing {
		trips = 0
	}
	if trips < 0 {
		trips = 0
	}
	info.Trip = trips
	info.Known = true
	return info
}

func refName(n *cast.Node) string {
	for n != nil && (n.Kind == cast.KindImplicitCastExpr || n.Kind == cast.KindParenExpr) {
		if len(n.Children) != 1 {
			return ""
		}
		n = n.Children[0]
	}
	if n != nil && n.Kind == cast.KindDeclRefExpr {
		return n.Name
	}
	return ""
}

func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	}
	return op
}

// stepOf extracts the counter step from the increment clause. The boolean
// results are (step magnitude sign-carrying, increasing?, recognized?).
func stepOf(inc *cast.Node, counter string, env Env) (float64, bool, bool) {
	if inc == nil {
		return 0, false, false
	}
	switch inc.Kind {
	case cast.KindUnaryOperator:
		if refName(inc.Children[0]) != counter {
			return 0, false, false
		}
		switch inc.Op {
		case "pre++", "post++":
			return 1, true, true
		case "pre--", "post--":
			return -1, false, true
		}
	case cast.KindCompoundAssignOperator:
		if refName(inc.Children[0]) != counter {
			return 0, false, false
		}
		s, ok := Eval(inc.Children[1], env)
		if !ok {
			return 0, false, false
		}
		switch inc.Op {
		case "+=":
			return s, s > 0, true
		case "-=":
			return -s, s < 0, true
		}
	case cast.KindBinaryOperator:
		// i = i + s or i = i - s.
		if inc.Op != "=" || refName(inc.Children[0]) != counter {
			return 0, false, false
		}
		rhs := inc.Children[1]
		for rhs.Kind == cast.KindImplicitCastExpr || rhs.Kind == cast.KindParenExpr {
			rhs = rhs.Children[0]
		}
		if rhs.Kind != cast.KindBinaryOperator {
			return 0, false, false
		}
		a, b := rhs.Children[0], rhs.Children[1]
		switch {
		case refName(a) == counter:
			s, ok := Eval(b, env)
			if !ok {
				return 0, false, false
			}
			if rhs.Op == "+" {
				return s, s > 0, true
			}
			if rhs.Op == "-" {
				return -s, s < 0, true
			}
		case refName(b) == counter && rhs.Op == "+":
			s, ok := Eval(a, env)
			if !ok {
				return 0, false, false
			}
			return s, s > 0, true
		}
	}
	return 0, false, false
}
