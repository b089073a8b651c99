// Command datagen runs the data-collection pipeline of Figure 3: it sweeps
// kernel variants, measures them on the simulated accelerators through the
// cluster substrate, prints the Table II statistics, and optionally writes
// the per-platform datasets as JSON, one DIR/<hw.Slug of the platform>.json
// each (nvidia-v100-gpu.json).
//
// Usage:
//
//	datagen [-scale tiny|small|full] [-platform "NVIDIA V100 (GPU)"] [-out dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"paragraph/internal/dataset"
	"paragraph/internal/experiments"
	"paragraph/internal/hw"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "dataset scale: tiny, small, or full")
	platform := fs.String("platform", "", "collect a single platform by name (default: all four)")
	outDir := fs.String("out", "", "directory to write per-platform JSON datasets")
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	runner := experiments.NewRunner(scale)

	machines := hw.All()
	if *platform != "" {
		m, err := hw.ByName(*platform)
		if err != nil {
			return err
		}
		machines = []hw.Machine{m}
	}

	fmt.Printf("collecting at scale %q\n", scale.Name)
	for _, m := range machines {
		p, err := runner.Platform(m)
		if err != nil {
			return err
		}
		s := p.Stats()
		fmt.Printf("%-22s %8d points, runtime [%.3g - %.6g] ms, stddev %.4g ms, %d lost\n",
			m.Name, s.NumPoints, s.MinRuntimeMS, s.MaxRuntimeMS, s.StdDevMS, p.Failed)
		if *outDir != "" {
			if err := writePlatform(*outDir, p); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePlatform(dir string, p *dataset.Platform) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, hw.Slug(p.Machine.Name)+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := dataset.SavePoints(f, p.Points); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	return nil
}
