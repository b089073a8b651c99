package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-scale", "huge"},
		{"-table", "7"},
		{"-figure", "1"},
		{"-badflag"},
		{"-table", "3", "-figure", "8"},
		{"-all", "-table", "3"},
		{"-all", "-figure", "8"},
		{"-scale", "tiny", "3"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args, io.Discard); err == nil {
				t.Errorf("run(%v) accepted", args)
			}
		})
	}
}

// TestRunTable1 renders the training-free artifact through the CLI path.
func TestRunTable1(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Application", "Matrix-Matrix Multiplication", "Total"} {
		if !strings.Contains(got, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, got)
		}
	}
}

// TestRunTable2 exercises one simulated-collection artifact end to end at
// tiny scale (no model training involved): the V100 row has points and a
// positive runtime range.
func TestRunTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset collection in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"-scale", "tiny", "-table", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	const platform = "NVIDIA V100 (GPU)"
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, platform) {
			row = line
		}
	}
	var cluster string
	var points, lost int
	var lo, hi, sd float64
	if _, err := fmt.Sscanf(strings.TrimPrefix(row, platform),
		" %s %d [%g - %g] %g %d", &cluster, &points, &lo, &hi, &sd, &lost); err != nil {
		t.Fatalf("no Table II row for %s (%v) in:\n%s", platform, err, out.String())
	}
	if points <= 0 || lo <= 0 || hi < lo {
		t.Errorf("row %q: want points and 0 < min <= max", row)
	}
}

// TestAllTinyGolden pins every number `experiments -all -scale tiny` prints:
// trained models, predictions and every table, byte for byte, against
// testdata/all_tiny.golden. A change that must not move a prediction (a
// faster kernel, a refactor of the engine or the trainer) leaves it as it
// is; one that means to move them rewrites it with
//
//	go run ./cmd/experiments -all -scale tiny > cmd/experiments/testdata/all_tiny.golden
func TestAllTinyGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every tiny model in -short mode")
	}
	checkGolden(t, "tiny")
}

// TestAllSmallGolden is TestAllTinyGolden at -scale small, against
// testdata/all_small.golden. It trains for minutes, so it runs only when
// PARAGRAPH_SMALL_GOLDEN is set:
//
//	PARAGRAPH_SMALL_GOLDEN=1 go test -run AllSmallGolden -timeout 20m ./cmd/experiments
//
// and the file is rewritten with
//
//	go run ./cmd/experiments -all -scale small > cmd/experiments/testdata/all_small.golden
func TestAllSmallGolden(t *testing.T) {
	if os.Getenv("PARAGRAPH_SMALL_GOLDEN") == "" {
		t.Skip("trains every small model (minutes); set PARAGRAPH_SMALL_GOLDEN=1 to run")
	}
	checkGolden(t, "small")
}

// checkGolden compares `experiments -all -scale <scale>` stdout with
// testdata/all_<scale>.golden line by line.
func checkGolden(t *testing.T, scale string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		// The bytes are amd64's: gc fuses a*b+c into one rounding on
		// arm64, ppc64le, s390x and riscv64 but never on amd64, and
		// math.Exp is assembly on amd64, arm64 and s390x only. Within
		// amd64, math.Exp takes an FMA path on CPUs that have FMA (every
		// AVX2 CPU); the golden was written on one.
		t.Skipf("golden holds amd64's bits; %s rounds differently", runtime.GOARCH)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all_"+scale+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-all", "-scale", scale}, &out); err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, golden has %d", len(gotLines), len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d: got %q, golden %q", i+1, gotLines[i], wantLines[i])
		}
	}
}
