package cparse_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"paragraph/internal/apps"
	"paragraph/internal/cparse"
	"paragraph/internal/gnn"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
)

// nest wraps body in n copies of open ... close inside a kernel function.
func nest(open, close, body string, n int) string {
	return "void k(double *a, int x) {\n" +
		strings.Repeat(open, n) + body + strings.Repeat(close, n) + "\n}"
}

// deepShapes is one source per cycle of the grammar, each nested n levels:
// the ways a request body can make the recursive descent recurse.
func deepShapes(n int) map[string]string {
	return map[string]string{
		"parens":    nest("a[0] = "+strings.Repeat("(", n), strings.Repeat(")", n)+";", "1", 1),
		"blocks":    nest("{", "}", "x = 1;", n),
		"for":       nest("for (;;) ", "", "x = 1;", n),
		"while":     nest("while (x) ", "", "x = 1;", n),
		"do":        nest("do ", " while (x);", "x = 1;", n),
		"if":        nest("if (x) ", "", "x = 1;", n),
		"else-if":   nest("if (x) x = 1; else ", "", "x = 2;", n),
		"pragma":    nest("#pragma omp parallel\n", "", "x = 1;", n),
		"assign":    nest("x = ", "", "1;", n),
		"ternary":   nest("x ? 1 : ", "", "1;", n),
		"unary":     nest("a[0] = "+strings.Repeat("-", n), ";", "1", 1),
		"cast":      nest("a[0] = "+strings.Repeat("(int)", n), ";", "1", 1),
		"sizeof":    nest("a[0] = "+strings.Repeat("sizeof ", n), ";", "x", 1),
		"subscript": nest("a[0] = "+strings.Repeat("a[", n), strings.Repeat("]", n)+";", "0", 1),
		"call":      nest("a[0] = "+strings.Repeat("f(", n), strings.Repeat(")", n)+";", "1", 1),
	}
}

// TestParseDepthBudget pins the nesting budget: source nested past it comes
// back as a *cparse.Error positioned where the budget ran out, a few
// hundred tokens in — not as the stack overflow 300 000 parentheses used to
// be, and without descending the rest — while nesting far beyond anything
// the suite writes still parses.
func TestParseDepthBudget(t *testing.T) {
	over := deepShapes(10_000)
	over["parens-600kB"] = deepShapes(300_000)["parens"]
	for name, src := range over {
		start := time.Now()
		_, err := cparse.ParseFunction(src)
		elapsed := time.Since(start)
		var perr *cparse.Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nesting deeper than") {
			t.Errorf("%s (%d bytes): err = %v, want a nesting error", name, len(src), err)
			continue
		}
		// Every shape opens at least one level per 21 bytes ("#pragma omp
		// parallel\n"), so the budget is spent within the first few kB.
		if perr.Pos.Line == 0 || perr.Pos.Offset > 8<<10 {
			t.Errorf("%s (%d bytes): nesting error at %s (offset %d), want it where the budget ran out",
				name, len(src), perr.Pos, perr.Pos.Offset)
		}
		// What is left is tokenizing the body: ~0.2 s for the 600 kB one,
		// about 2 s under the race detector. The ceiling only has to catch
		// a parse that went on regardless.
		if elapsed > 5*time.Second {
			t.Errorf("%s (%d bytes): rejected after %v", name, len(src), elapsed)
		}
	}
	for name, src := range deepShapes(100) {
		if _, err := cparse.ParseFunction(src); err != nil {
			t.Errorf("%s nested 100 deep: %v", name, err)
		}
	}
}

// TestParseTokenBudget pins the length budget: a flat body or a pragma of
// more than maxTokens tokens comes back as a *cparse.Error positioned where
// the budget ran out, while one just under it still parses.
func TestParseTokenBudget(t *testing.T) {
	sum := func(terms int) string {
		return "void k(double *a, int i) {\n    a[0] = " + strings.Repeat("a[i] + ", terms) + "1;\n}"
	}
	mapped := func(items int) string {
		return "void k(double *a, int i) {\n#pragma omp target map(to: " +
			strings.Repeat("a[0:i], ", items) + "a)\n    a[0] = 1;\n}"
	}
	for name, src := range map[string]string{
		"sum-20000":    sum(20_000),
		"sum-200000":   sum(200_000),
		"pragma-20000": mapped(20_000),
	} {
		_, err := cparse.ParseFunction(src)
		var perr *cparse.Error
		if !errors.As(err, &perr) || perr.Msg != "source longer than 16384 tokens" || perr.Pos.Line == 0 {
			t.Errorf("%s (%d bytes): err = %v, want the length budget's error", name, len(src), err)
			continue
		}
		// A term is five tokens in seven bytes: 16 384 tokens end before 24 kB.
		if perr.Pos.Offset > 24<<10 {
			t.Errorf("%s: budget error at offset %d, want it where the budget ran out", name, perr.Pos.Offset)
		}
	}
	for _, src := range []string{sum(3_000), mapped(2_000)} {
		if _, err := cparse.ParseFunction(src); err != nil {
			t.Errorf("%d bytes under the budget: %v", len(src), err)
		}
	}
}

// FuzzParseFunction holds the parser to its contract on arbitrary bytes: it
// returns a tree or an error — it does not panic, hang the stack or exit —
// and a tree it returns can be built and encoded at every representation
// level, which is everything the serving front end does with it. The seeds
// are every suite kernel in every variant kind plus the deep-nest shapes,
// and plain `go test` runs them all.
func FuzzParseFunction(f *testing.F) {
	for _, k := range apps.Kernels() {
		for _, kind := range variants.Kinds() {
			src, err := variants.Generate(k, kind, 64, 128)
			if err != nil {
				continue // collapse variant of a non-collapsible kernel
			}
			if _, err := cparse.ParseFunction(src); err != nil {
				f.Fatalf("%s/%s does not parse: %v", k.Name, kind, err)
			}
			f.Add(src)
		}
	}
	for _, n := range []int{100, 1000} {
		for _, src := range deepShapes(n) {
			f.Add(src)
		}
	}
	for _, pragma := range []string{
		"parallel for collapse(0x2) num_threads(n)", "target map(a, b[0:n]) map(to: a[0:n][0:m])",
		"target map(to: a[0:n +], b[0:f(n,m)]) map(alloc: s)", "target map(to: a[0:n)", "target map(to: a[0:n]])",
		"parallel for,collapse(2), reduction(max: s, n) // note", `parallel for if(")") schedule(static, 16)`,
		"parallel for if(@)", "barrier map(to: a[0:n]) reduction(+: s)", "critical (name)", "parallel(x)",
		"parallel for private() default(none) nowait nowait", "target teams distribute \\\n parallel for #x",
	} {
		f.Add("void k(double *a, double *b, double s, int n, int m) {\n#pragma omp " + pragma +
			"\nfor (int i = 0; i < n; i++) for (int j = 0; j < m; j++) a[i*m+j] = b[i] * s;\n}")
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := cparse.ParseFunction(src)
		if err != nil {
			return
		}
		for _, level := range []paragraph.Level{
			paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
		} {
			g, err := paragraph.Build(fn, paragraph.Options{Level: level, Threads: 8})
			if err == nil {
				_, err = gnn.Encode(g, int(paragraph.NumEdgeTypes))
			}
			if err != nil {
				t.Errorf("parsed, but no %s graph: %v\nsource:\n%s", level, err, src)
			}
		}
	})
}
