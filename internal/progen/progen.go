// Package progen generates random — but always well-formed — C kernels in
// the subset the frontend supports. It drives property-based tests across
// the pipeline: every generated program must lex, parse, build a valid
// ParaGraph at every level, and analyze to finite costs.
package progen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config bounds the generated programs.
type Config struct {
	MaxDepth    int  // statement nesting depth (default 3)
	MaxStmts    int  // statements per block (default 4)
	MaxExprTerm int  // terms per expression (default 3)
	WithOMP     bool // emit an OpenMP pragma on one loop
}

func (c Config) withDefaults() Config {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MaxStmts <= 0 {
		c.MaxStmts = 4
	}
	if c.MaxExprTerm <= 0 {
		c.MaxExprTerm = 3
	}
	return c
}

// Generate returns a random kernel function in C.
func Generate(rng *rand.Rand, cfg Config) string {
	cfg = cfg.withDefaults()
	g := &gen{rng: rng, cfg: cfg}
	return g.function()
}

type gen struct {
	rng     *rand.Rand
	cfg     Config
	scalars []string // declared int/double scalars usable in expressions
	arrays  []string // declared double* arrays
	counter int
	pragma  bool // whether the OMP pragma has been emitted
}

func (g *gen) fresh(prefix string) string {
	g.counter++
	return fmt.Sprintf("%s%d", prefix, g.counter)
}

func (g *gen) pick(names []string) string {
	return names[g.rng.Intn(len(names))]
}

func (g *gen) function() string {
	g.scalars = []string{"n", "m"}
	g.arrays = []string{"a", "b"}
	var sb strings.Builder
	sb.WriteString("void kernel(double *a, double *b, int n, int m) {\n")
	g.block(&sb, 1, g.cfg.MaxDepth)
	sb.WriteString("}\n")
	return sb.String()
}

func (g *gen) indent(sb *strings.Builder, depth int) {
	sb.WriteString(strings.Repeat("    ", depth))
}

func (g *gen) block(sb *strings.Builder, depth, budget int) {
	n := 1 + g.rng.Intn(g.cfg.MaxStmts)
	for i := 0; i < n; i++ {
		g.stmt(sb, depth, budget)
	}
}

func (g *gen) stmt(sb *strings.Builder, depth, budget int) {
	choice := g.rng.Intn(10)
	if budget <= 0 && choice >= 4 {
		choice = g.rng.Intn(4) // only flat statements when out of depth
	}
	switch choice {
	case 0: // scalar declaration
		name := g.fresh("t")
		g.indent(sb, depth)
		fmt.Fprintf(sb, "double %s = %s;\n", name, g.expr(1))
		g.scalars = append(g.scalars, name)
	case 1, 2: // scalar assignment
		g.indent(sb, depth)
		fmt.Fprintf(sb, "%s = %s;\n", g.pick(g.scalars), g.expr(g.cfg.MaxExprTerm))
	case 3: // array store
		g.indent(sb, depth)
		fmt.Fprintf(sb, "%s[%s] = %s;\n", g.pick(g.arrays), g.index(), g.expr(g.cfg.MaxExprTerm))
	case 4, 5, 6: // for loop (canonical, so trip counts derive)
		iv := g.fresh("i")
		bound := g.loopBound()
		if g.cfg.WithOMP && !g.pragma && depth == 1 {
			g.pragma = true
			g.indent(sb, depth)
			sb.WriteString("#pragma omp parallel for\n")
		}
		g.indent(sb, depth)
		fmt.Fprintf(sb, "for (int %s = 0; %s < %s; %s++) {\n", iv, iv, bound, iv)
		g.scalars = append(g.scalars, iv)
		g.block(sb, depth+1, budget-1)
		g.scalars = g.scalars[:len(g.scalars)-1]
		g.indent(sb, depth)
		sb.WriteString("}\n")
	case 7, 8: // if / if-else
		g.indent(sb, depth)
		fmt.Fprintf(sb, "if (%s > %s) {\n", g.pick(g.scalars), g.expr(1))
		g.block(sb, depth+1, budget-1)
		g.indent(sb, depth)
		if g.rng.Intn(2) == 0 {
			sb.WriteString("} else {\n")
			g.block(sb, depth+1, budget-1)
			g.indent(sb, depth)
		}
		sb.WriteString("}\n")
	case 9: // while with a bounded-looking condition
		cond := g.pick(g.scalars)
		g.indent(sb, depth)
		fmt.Fprintf(sb, "while (%s > 0) {\n", cond)
		g.indent(sb, depth+1)
		fmt.Fprintf(sb, "%s = %s - 1;\n", cond, cond)
		g.indent(sb, depth)
		sb.WriteString("}\n")
	}
}

// loopBound yields a parseable trip-count source: literal or size parameter.
func (g *gen) loopBound() string {
	switch g.rng.Intn(3) {
	case 0:
		return fmt.Sprintf("%d", 2+g.rng.Intn(100))
	case 1:
		return "n"
	default:
		return "m"
	}
}

func (g *gen) index() string {
	// Index expressions stay non-negative: scalars or scaled sums.
	switch g.rng.Intn(3) {
	case 0:
		return g.pick(g.scalars)
	case 1:
		return fmt.Sprintf("%s + %d", g.pick(g.scalars), g.rng.Intn(8))
	default:
		return fmt.Sprintf("%s * %d", g.pick(g.scalars), 1+g.rng.Intn(4))
	}
}

func (g *gen) expr(terms int) string {
	if terms <= 1 {
		return g.atom()
	}
	ops := []string{"+", "-", "*"}
	var sb strings.Builder
	sb.WriteString(g.atom())
	n := 1 + g.rng.Intn(terms)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, " %s %s", ops[g.rng.Intn(len(ops))], g.atom())
	}
	return sb.String()
}

func (g *gen) atom() string {
	switch g.rng.Intn(5) {
	case 0:
		return fmt.Sprintf("%d.%d", g.rng.Intn(10), g.rng.Intn(100))
	case 1:
		return g.pick(g.scalars)
	case 2:
		return fmt.Sprintf("%s[%s]", g.pick(g.arrays), g.index())
	case 3:
		return fmt.Sprintf("sqrt(%s)", g.pick(g.scalars))
	default:
		return fmt.Sprintf("(%s + %d)", g.pick(g.scalars), g.rng.Intn(16))
	}
}
