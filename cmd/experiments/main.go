// Command experiments regenerates the paper's tables and figures against
// the simulated substrate; internal/experiments computes each reproduced
// artifact as rows and prints it from them.
//
// Usage (one selector at most; none means -all):
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
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// run writes the artifacts to w and flag errors and usage to stderr, so a
// redirected stdout holds tables or nothing.
func run(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "small", "scale: tiny, small, or full")
	table := fs.Int("table", 0, "regenerate one table (1-4)")
	figure := fs.Int("figure", 0, "regenerate one figure (4-9)")
	all := fs.Bool("all", false, "regenerate everything")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if (*all && (*table != 0 || *figure != 0)) || (*table != 0 && *figure != 0) {
		return fmt.Errorf("choose one of -all, -table and -figure")
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
