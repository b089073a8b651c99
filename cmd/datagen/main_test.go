package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paragraph/internal/dataset"
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

func TestRunCollectsAndWritesPlatform(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-scale", "tiny", "-platform", "NVIDIA V100 (GPU)", "-out", dir})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "nvidia-v100-gpu.json" {
		t.Fatalf("wrote %v, want one nvidia-v100-gpu.json", entries)
	}
	path := filepath.Join(dir, entries[0].Name())
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	points, err := dataset.LoadPoints(f)
	if err != nil {
		t.Fatalf("written dataset does not load: %v", err)
	}
	if len(points) == 0 {
		t.Error("empty dataset written")
	}
	for _, p := range points {
		if !p.Instance.Kind.IsGPU() {
			t.Errorf("CPU variant %v in V100 dataset", p.Instance.Kind)
		}
		if p.RuntimeUS <= 0 {
			t.Errorf("non-positive runtime %v", p.RuntimeUS)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-scale", "bogus"}); err == nil {
		t.Error("bad scale accepted")
	}
	if err := run([]string{"-scale", "tiny", "-platform", "Cray XT5"}); err == nil {
		t.Error("unknown platform accepted")
	}
}
