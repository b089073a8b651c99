package omp

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) *Directive {
	t.Helper()
	d, err := ParsePragma(text)
	if err != nil {
		t.Fatalf("ParsePragma(%q): %v", text, err)
	}
	if d == nil {
		t.Fatalf("ParsePragma(%q) = nil directive", text)
	}
	return d
}

func TestParseSimpleDirectives(t *testing.T) {
	cases := []struct {
		text string
		kind DirectiveKind
	}{
		{"#pragma omp parallel", DirParallel},
		{"#pragma omp parallel for", DirParallelFor},
		{"#pragma omp for", DirFor},
		{"#pragma omp simd", DirSIMD},
		{"#pragma omp target", DirTarget},
		{"#pragma omp teams", DirTeams},
		{"#pragma omp distribute", DirDistribute},
		{"#pragma omp target teams", DirTargetTeams},
		{"#pragma omp teams distribute", DirTeamsDistribute},
		{"#pragma omp target teams distribute", DirTargetTeamsDistribute},
		{"#pragma omp target teams distribute parallel for", DirTargetTeamsDistributeParallelFor},
		{"#pragma omp distribute parallel for", DirDistributeParallelFor},
		{"#pragma omp target data", DirTargetData},
		{"#pragma omp target enter data", DirTargetEnterData},
		{"#pragma omp target exit data", DirTargetExitData},
		{"#pragma omp barrier", DirBarrier},
		{"#pragma omp atomic", DirAtomic},
		{"#pragma omp critical", DirCritical},
		{"#pragma omp single", DirSingle},
		{"#pragma omp master", DirMaster},
	}
	for _, c := range cases {
		d := mustParse(t, c.text)
		if d.Kind != c.kind {
			t.Errorf("ParsePragma(%q).Kind = %v, want %v", c.text, d.Kind, c.kind)
		}
		if len(d.Clauses) != 0 {
			t.Errorf("ParsePragma(%q) has %d clauses, want 0", c.text, len(d.Clauses))
		}
	}
}

func TestParseCollapse(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for collapse(2)")
	if d.CollapseDepth() != 2 {
		t.Errorf("CollapseDepth = %d, want 2", d.CollapseDepth())
	}
	d = mustParse(t, "#pragma omp parallel for")
	if d.CollapseDepth() != 1 {
		t.Errorf("default CollapseDepth = %d, want 1", d.CollapseDepth())
	}
}

func TestParseTeamsThreads(t *testing.T) {
	d := mustParse(t, "#pragma omp target teams distribute parallel for num_teams(128) num_threads(64) thread_limit(64)")
	if d.NumTeams() != 128 {
		t.Errorf("NumTeams = %d, want 128", d.NumTeams())
	}
	if d.NumThreads() != 64 {
		t.Errorf("NumThreads = %d, want 64", d.NumThreads())
	}
	if c, ok := d.Clause(ClauseThreadLimit); !ok || c.IntArg != 64 {
		t.Errorf("thread_limit clause = %+v, ok=%v", c, ok)
	}
}

func TestParseMapClauses(t *testing.T) {
	d := mustParse(t, "#pragma omp target teams distribute parallel for map(to: a[0:n], b[0:n]) map(from: c[0:n]) map(alloc: tmp[0:n])")
	var to, from, alloc int
	for _, c := range d.Clauses {
		if c.Kind != ClauseMap {
			continue
		}
		switch c.MapDir {
		case MapTo:
			to = len(c.Args)
		case MapFrom:
			from = len(c.Args)
		case MapAlloc:
			alloc = len(c.Args)
		}
	}
	if to != 2 || from != 1 || alloc != 1 {
		t.Errorf("map args to=%d from=%d alloc=%d, want 2/1/1", to, from, alloc)
	}
}

func TestParseMapDefaultDirection(t *testing.T) {
	d := mustParse(t, "#pragma omp target map(a, b)")
	c, ok := d.Clause(ClauseMap)
	if !ok {
		t.Fatal("no map clause")
	}
	if c.MapDir != MapToFrom {
		t.Errorf("default map dir = %v, want tofrom", c.MapDir)
	}
	if len(c.Args) != 2 {
		t.Errorf("map args = %v, want 2", c.Args)
	}
}

func TestParseReduction(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for reduction(+: sum, total)")
	c, ok := d.Clause(ClauseReduction)
	if !ok {
		t.Fatal("no reduction clause")
	}
	if c.Reducer != "+" {
		t.Errorf("reducer = %q, want +", c.Reducer)
	}
	if len(c.Args) != 2 || c.Args[0] != "sum" || c.Args[1] != "total" {
		t.Errorf("reduction args = %v", c.Args)
	}
}

func TestParseSchedule(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for schedule(static, 16)")
	c, ok := d.Clause(ClauseSchedule)
	if !ok {
		t.Fatal("no schedule clause")
	}
	if len(c.Args) != 2 || c.Args[0] != "static" || c.Args[1] != "16" {
		t.Errorf("schedule args = %v", c.Args)
	}
}

func TestParsePrivateShared(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for private(i, j) shared(a) firstprivate(x) default(none) nowait")
	wantKinds := []ClauseKind{ClausePrivate, ClauseShared, ClauseFirstPrivate, ClauseDefault, ClauseNowait}
	if len(d.Clauses) != len(wantKinds) {
		t.Fatalf("clauses = %v, want %d", d.Clauses, len(wantKinds))
	}
	for i, k := range wantKinds {
		if d.Clauses[i].Kind != k {
			t.Errorf("clause %d kind = %v, want %v", i, d.Clauses[i].Kind, k)
		}
	}
}

func TestParseArraySectionWithExpr(t *testing.T) {
	d := mustParse(t, "#pragma omp target map(tofrom: m[0:rows*cols])")
	c, _ := d.Clause(ClauseMap)
	if len(c.Args) != 1 || c.Args[0] != "m[0:rows*cols]" {
		t.Errorf("map args = %v", c.Args)
	}
}

func TestNonOMPPragma(t *testing.T) {
	d, err := ParsePragma("#pragma once")
	if err != nil {
		t.Fatalf("ParsePragma(#pragma once): %v", err)
	}
	if d != nil {
		t.Errorf("non-omp pragma parsed as %v", d)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"#pragma omp",
		"#pragma omp bogus",
		"#pragma omp parallel for collapse",
		"#pragma omp parallel for collapse(2",
		"#pragma omp parallel for frobnicate(3)",
		"#pragma omp parallel for reduction(sum)",
		"#pragma omp target map(sideways: a)",
		"not a pragma at all",
	}
	for _, c := range cases {
		if d, err := ParsePragma(c); err == nil && d != nil {
			t.Errorf("ParsePragma(%q) succeeded: %v", c, d)
		}
	}
}

func TestDirectiveString(t *testing.T) {
	d := mustParse(t, "#pragma omp target teams distribute parallel for collapse(2) map(to: a[0:n]) reduction(+: s) nowait")
	s := d.String()
	for _, want := range []string{
		"#pragma omp target teams distribute parallel for",
		"collapse(2)",
		"map(to: a[0:n])",
		"reduction(+: s)",
		"nowait",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestDirectiveStringRoundTrip(t *testing.T) {
	src := "#pragma omp target teams distribute parallel for collapse(2) num_teams(8) map(tofrom: a[0:n])"
	d1 := mustParse(t, src)
	d2 := mustParse(t, d1.String())
	if d1.Kind != d2.Kind || len(d1.Clauses) != len(d2.Clauses) {
		t.Fatalf("round trip mismatch: %v vs %v", d1, d2)
	}
	for i := range d1.Clauses {
		if d1.Clauses[i].String() != d2.Clauses[i].String() {
			t.Errorf("clause %d: %q vs %q", i, d1.Clauses[i].String(), d2.Clauses[i].String())
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !DirTargetTeamsDistributeParallelFor.IsTarget() {
		t.Error("TTDPF should be target")
	}
	if DirParallelFor.IsTarget() {
		t.Error("parallel for is not target")
	}
	if !DirParallelFor.IsLoopAssociated() {
		t.Error("parallel for is loop-associated")
	}
	if DirParallel.IsLoopAssociated() {
		t.Error("parallel alone is not loop-associated")
	}
	if !DirTargetTeamsDistributeParallelFor.IsLoopAssociated() {
		t.Error("TTDPF is loop-associated")
	}
}

func TestKindStrings(t *testing.T) {
	if DirTargetTeamsDistributeParallelFor.String() != "target teams distribute parallel for" {
		t.Errorf("bad spelling: %q", DirTargetTeamsDistributeParallelFor.String())
	}
	if DirectiveKind(999).String() != "DirectiveKind(999)" {
		t.Errorf("out of range: %q", DirectiveKind(999).String())
	}
	if ClauseKind(999).String() != "ClauseKind(999)" {
		t.Errorf("out of range: %q", ClauseKind(999).String())
	}
	if MapTo.String() != "to" || MapFrom.String() != "from" || MapAlloc.String() != "alloc" || MapToFrom.String() != "tofrom" {
		t.Error("map type spellings wrong")
	}
}

func TestSplitArgsNested(t *testing.T) {
	args := splitArgs("a[0:n], b[i(1,2):m], c")
	want := []string{"a[0:n]", "b[i(1,2):m]", "c"}
	if len(args) != len(want) {
		t.Fatalf("args = %v, want %v", args, want)
	}
	for i := range want {
		if args[i] != want[i] {
			t.Errorf("arg %d = %q, want %q", i, args[i], want[i])
		}
	}
}
