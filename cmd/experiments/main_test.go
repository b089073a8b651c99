package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-scale", "huge"},
		{"-table", "7"},
		{"-figure", "1"},
		{"-badflag"},
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
