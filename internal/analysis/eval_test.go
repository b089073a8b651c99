package analysis

import (
	"testing"
	"testing/quick"

	"paragraph/internal/cast"
	"paragraph/internal/cparse"
)

// exprOf parses "v = <expr>;" inside a scaffold function and returns the
// expression's RHS node.
func exprOf(t *testing.T, expr string, params string) *cast.Node {
	t.Helper()
	src := "void f(" + params + ") { double v; v = " + expr + "; }"
	root, err := cparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	fn := cast.FindFunction(root, "f")
	body := fn.Body()
	asn := body.Children[len(body.Children)-1]
	return asn.Children[1]
}

func TestEvalConstants(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"42", 42},
		{"3.5", 3.5},
		{"0x10", 16},
		{"100UL", 100},
		{"1 + 2 * 3", 7},
		{"(1 + 2) * 3", 9},
		{"10 / 4", 2.5},
		{"10 % 3", 1},
		{"1 << 4", 16},
		{"256 >> 2", 64},
		{"-5", -5},
		{"+5", 5},
		{"!0", 1},
		{"!3", 0},
		{"1 < 2", 1},
		{"2 <= 1", 0},
		{"3 == 3", 1},
		{"3 != 3", 0},
		{"1 && 2", 1},
		{"0 || 0", 0},
		{"6 & 3", 2},
		{"6 | 1", 7},
		{"6 ^ 3", 5},
		{"1 ? 10 : 20", 10},
		{"0 ? 10 : 20", 20},
		{"'A'", 65},
		{"2.0e3", 2000},
	}
	for _, c := range cases {
		n := exprOf(t, c.expr, "")
		got, ok := Eval(n, nil)
		if !ok {
			t.Errorf("Eval(%q) not constant", c.expr)
			continue
		}
		if got != c.want {
			t.Errorf("Eval(%q) = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestEvalWithEnv(t *testing.T) {
	n := exprOf(t, "n * m + 1", "int n, int m")
	got, ok := Eval(n, Env{"n": 10, "m": 20})
	if !ok || got != 201 {
		t.Errorf("Eval = %v, %v; want 201, true", got, ok)
	}
	if _, ok := Eval(n, Env{"n": 10}); ok {
		t.Error("Eval with missing binding should fail")
	}
}

func TestEvalConstInitializerFallback(t *testing.T) {
	src := `void f(void) { int n = 64; int m; m = n * 2; }`
	root, err := cparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	body := cast.FindFunction(root, "f").Body()
	asn := body.Children[2]
	got, ok := Eval(asn.Children[1], nil)
	if !ok || got != 128 {
		t.Errorf("Eval via initializer = %v, %v; want 128", got, ok)
	}
}

func TestEvalDivisionByZero(t *testing.T) {
	n := exprOf(t, "1 / 0", "")
	if _, ok := Eval(n, nil); ok {
		t.Error("division by zero should not be constant")
	}
	n = exprOf(t, "1 % 0", "")
	if _, ok := Eval(n, nil); ok {
		t.Error("mod by zero should not be constant")
	}
}

func TestEvalSizeof(t *testing.T) {
	cases := []struct {
		expr string
		want float64
	}{
		{"sizeof(double)", 8},
		{"sizeof(float)", 4},
		{"sizeof(int)", 4},
		{"sizeof(char)", 1},
		{"sizeof(short)", 2},
		{"sizeof(long)", 8},
		{"sizeof(double *)", 8},
	}
	for _, c := range cases {
		n := exprOf(t, c.expr, "")
		got, ok := Eval(n, nil)
		if !ok || got != c.want {
			t.Errorf("Eval(%q) = %v, %v; want %v", c.expr, got, ok, c.want)
		}
	}
}

func TestEvalNil(t *testing.T) {
	if _, ok := Eval(nil, nil); ok {
		t.Error("Eval(nil) should fail")
	}
}

// forOf parses a function containing a single loop and returns its ForStmt.
func forOf(t *testing.T, loop string, params string) *cast.Node {
	t.Helper()
	src := "void f(" + params + ") { " + loop + " }"
	root, err := cparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", loop, err)
	}
	fors := cast.FindAll(root, cast.KindForStmt)
	if len(fors) == 0 {
		t.Fatalf("no for in %q", loop)
	}
	return fors[0]
}

func TestForTripCanonical(t *testing.T) {
	cases := []struct {
		loop   string
		params string
		env    Env
		want   float64
	}{
		{"for (int i = 0; i < 50; i++) {}", "", nil, 50},
		{"for (int i = 0; i <= 50; i++) {}", "", nil, 51},
		{"for (int i = 1; i < 100; i += 2) {}", "", nil, 50},
		{"for (int i = 100; i > 0; i--) {}", "", nil, 100},
		{"for (int i = 100; i >= 0; i -= 10) {}", "", nil, 11},
		{"for (int i = 0; i < n; i++) {}", "int n", Env{"n": 1000}, 1000},
		{"for (int i = 0; i < n * m; i++) {}", "int n, int m", Env{"n": 10, "m": 7}, 70},
		{"for (int i = 0; n > i; i++) {}", "int n", Env{"n": 25}, 25},
		{"for (int i = 0; i != 10; i++) {}", "", nil, 10},
		{"int i; for (i = 5; i < 10; i++) {}", "", nil, 5},
		{"for (int i = 0; i < 10; i = i + 3) {}", "", nil, 4},
		{"for (int i = 0; i < 10; i = 2 + i) {}", "", nil, 5},
		{"for (int i = 10; i < 5; i++) {}", "", nil, 0},
		{"for (int i = 0; i > 5; i++) {}", "", nil, 0},
	}
	for _, c := range cases {
		fs := forOf(t, c.loop, c.params)
		info := ForTrip(fs, c.env, 99)
		if !info.Known {
			t.Errorf("ForTrip(%q) unknown", c.loop)
			continue
		}
		if info.Trip != c.want {
			t.Errorf("ForTrip(%q) = %v, want %v", c.loop, info.Trip, c.want)
		}
	}
}

func TestForTripUnknownFallsBack(t *testing.T) {
	cases := []struct {
		loop, params string
	}{
		{"for (;;) {}", ""},
		{"for (int i = 0; i < n; i++) {}", "int n"}, // n unbound
		{"for (int i = 0; cond(i); i++) {}", "int cond"},
		{"for (int i = 0; i < 10; i = next(i)) {}", "int next"},
	}
	for _, c := range cases {
		fs := forOf(t, c.loop, c.params)
		info := ForTrip(fs, nil, 77)
		if info.Known {
			t.Errorf("ForTrip(%q) should be unknown", c.loop)
		}
		if info.Trip != 77 {
			t.Errorf("ForTrip(%q) default = %v, want 77", c.loop, info.Trip)
		}
	}
}

func TestForTripNonFor(t *testing.T) {
	info := ForTrip(nil, nil, 5)
	if info.Known || info.Trip != 5 {
		t.Errorf("ForTrip(nil) = %+v", info)
	}
	n := cast.NewNode(cast.KindWhileStmt)
	info = ForTrip(n, nil, 5)
	if info.Known {
		t.Error("ForTrip on while should be unknown")
	}
}

// Property: for canonical loops, trip count equals the simulated iteration
// count of the loop.
func TestForTripMatchesSimulationProperty(t *testing.T) {
	f := func(startRaw, boundRaw uint8, stepRaw uint8) bool {
		start := int(startRaw % 50)
		bound := int(boundRaw)
		step := int(stepRaw%7) + 1
		fs := forOf(t, "for (int i = S; i < B; i += T) {}", "int S, int B, int T")
		env := Env{"S": float64(start), "B": float64(bound), "T": float64(step)}
		info := ForTrip(fs, env, -1)
		if !info.Known {
			return false
		}
		count := 0
		for i := start; i < bound; i += step {
			count++
		}
		return info.Trip == float64(count)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
