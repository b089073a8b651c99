// Command experiments regenerates the paper's tables and figures against
// the simulated substrate; internal/experiments holds one function per
// reproduced artifact.
//
// Usage:
//
//	experiments -all [-scale tiny|small|full]
//	experiments -table 3
//	experiments -figure 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"paragraph/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(w)
	scaleName := fs.String("scale", "small", "scale: tiny, small, or full")
	table := fs.Int("table", 0, "regenerate one table (1-4)")
	figure := fs.Int("figure", 0, "regenerate one figure (4-9)")
	all := fs.Bool("all", false, "regenerate everything")
	if err := fs.Parse(args); err != nil {
		return err
	}

	scale, err := experiments.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	r := experiments.NewRunner(scale)

	switch {
	case *all || (*table == 0 && *figure == 0):
		fmt.Fprintf(w, "== ParaGraph experiment suite (scale %s) ==\n\n", scale.Name)
		return r.RunAll(w)
	case *table != 0:
		return r.Render(w, "table", *table)
	default:
		return r.Render(w, "figure", *figure)
	}
}
