package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"paragraph/internal/experiments"
)

func TestParseScale(t *testing.T) {
	for _, name := range []string{"tiny", "small", "full", "TINY"} {
		s, err := experiments.ParseScale(name)
		if err != nil {
			t.Errorf("ParseScale(%q): %v", name, err)
		}
		if s.Name != strings.ToLower(name) {
			t.Errorf("ParseScale(%q).Name = %q", name, s.Name)
		}
	}
	if _, err := experiments.ParseScale("enormous"); err == nil {
		t.Error("unknown scale accepted")
	}
}

// TestRunCollectsAndWritesPlatform: one platform's sweep prints its Table
// II row, with a non-empty dataset and a positive runtime range.
func TestRunCollectsAndWritesPlatform(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scale", "tiny", "-platform", "NVIDIA V100 (GPU)"}, &out); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "NVIDIA V100 (GPU)") {
			row = line
		}
	}
	var points, lost int
	var lo, hi, sd float64
	if _, err := fmt.Sscanf(strings.TrimPrefix(row, "NVIDIA V100 (GPU)"),
		" %d points, runtime [%g - %g] ms, stddev %g ms, %d lost", &points, &lo, &hi, &sd, &lost); err != nil {
		t.Fatalf("no Table II row for the platform (%v) in:\n%s", err, out.String())
	}
	if points == 0 || lo <= 0 || hi < lo {
		t.Errorf("row %q: want points and a positive runtime range", row)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "bogus"}, io.Discard); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-scale", "tiny", "-platform", "Cray XT5"}, io.Discard); err == nil {
		t.Error("unknown platform accepted")
	}
	// datagen writes no dataset file, so -out is not a flag.
	if err := run([]string{"-scale", "tiny", "-out", t.TempDir()}, io.Discard); err == nil {
		t.Error("-out accepted")
	}
}
