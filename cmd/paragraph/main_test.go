package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/paragraph"
)

const testKernel = `
void axpy(double *x, double *y, double a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "kernel.c")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDOTOutput(t *testing.T) {
	path := writeTemp(t, testKernel)
	var out bytes.Buffer
	err := run([]string{"-in", path, "-format", "dot", "-threads", "4", "-bind", "n=1000"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"digraph", "ForStmt", "Child", "ForExec"} {
		if !strings.Contains(s, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestRunStatsOutput(t *testing.T) {
	path := writeTemp(t, testKernel)
	var out bytes.Buffer
	err := run([]string{"-in", path, "-format", "stats", "-level", "para", "-bind", "n=100", "-threads", "4"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"function: axpy", "nodes:", "edges:", "total child-edge weight"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats output missing %q:\n%s", want, s)
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeTemp(t, testKernel)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-format", "json"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "\"nodes\"") {
		t.Error("json output missing nodes")
	}
}

func TestRunReadsStdin(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-format", "stats"}, strings.NewReader(testKernel), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "axpy") {
		t.Error("stdin input not processed")
	}
}

func TestRunSelectsFunction(t *testing.T) {
	two := testKernel + "\nvoid other(int n) { n++; }\n"
	path := writeTemp(t, two)
	var out bytes.Buffer
	if err := run([]string{"-in", path, "-func", "other", "-format", "stats"}, strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "function: other") {
		t.Errorf("wrong function:\n%s", out.String())
	}
	if err := run([]string{"-in", path, "-func", "missing"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing function accepted")
	}
}

func TestRunErrors(t *testing.T) {
	path := writeTemp(t, testKernel)
	cases := [][]string{
		{"-in", path, "-level", "bogus"},
		{"-in", path, "-format", "bogus"},
		{"-in", path, "-bind", "n"},
		{"-in", path, "-bind", "n=abc"},
		{"-in", "/nonexistent/file.c"},
	}
	for _, args := range cases {
		if err := run(args, strings.NewReader(""), &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	if err := run(nil, strings.NewReader("int broken("), &bytes.Buffer{}); err == nil {
		t.Error("broken source accepted")
	}
	if err := run(nil, strings.NewReader("int g = 1;"), &bytes.Buffer{}); err == nil {
		t.Error("source without functions accepted")
	}
}

func TestParseLevelAndBindings(t *testing.T) {
	for name, want := range map[string]paragraph.Level{
		"raw": paragraph.LevelRawAST, "aug": paragraph.LevelAugmentedAST,
		"para": paragraph.LevelParaGraph, "paragraph": paragraph.LevelParaGraph,
		"PARA": paragraph.LevelParaGraph,
	} {
		got, err := paragraph.ParseLevel(name)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", name, got, err)
		}
	}
	env, err := parseBindings("n=10, m = 2.5")
	if err != nil {
		t.Fatal(err)
	}
	if env["n"] != 10 || env["m"] != 2.5 {
		t.Errorf("bindings = %v", env)
	}
	if env, err := parseBindings(""); err != nil || len(env) != 0 {
		t.Errorf("empty bindings = %v, %v", env, err)
	}
}
