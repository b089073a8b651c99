// Command datagen runs the data-collection pipeline of Figure 3: it sweeps
// kernel variants, measures them on the simulated accelerators through the
// cluster substrate, and prints the Table II statistics, one row per
// platform.
//
// Usage:
//
//	datagen [-scale tiny|small|full] [-platform "NVIDIA V100 (GPU)"]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paragraph/internal/experiments"
	"paragraph/internal/hw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "dataset scale: tiny, small, or full")
	platform := fs.String("platform", "", "collect a single platform by name (default: all four)")
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

	fmt.Fprintf(w, "collecting at scale %q\n", scale.Name)
	for _, m := range machines {
		p, err := runner.Platform(m)
		if err != nil {
			return err
		}
		s := p.Stats()
		fmt.Fprintf(w, "%-22s %8d points, runtime [%.3g - %.6g] ms, stddev %.4g ms, %d lost\n",
			m.Name, s.NumPoints, s.MinRuntimeMS, s.MaxRuntimeMS, s.StdDevMS, p.Failed)
	}
	return nil
}
