// Command paragraph builds the ParaGraph representation of a C kernel and
// emits it as Graphviz DOT, JSON, or a summary.
//
// Usage:
//
//	paragraph -in kernel.c [-func name] [-level raw|aug|para]
//	          [-threads N] [-bind "n=1024,m=64"] [-format dot|json|stats]
//
// With no -in flag the source is read from stdin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"paragraph/internal/analysis"
	"paragraph/internal/cast"
	"paragraph/internal/cparse"
	"paragraph/internal/paragraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paragraph:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("paragraph", flag.ContinueOnError)
	in := fs.String("in", "", "input C file (default: stdin)")
	fn := fs.String("func", "", "function to build (default: first function)")
	levelName := fs.String("level", "para", "representation level: raw, aug, or para")
	threads := fs.Int("threads", 0, "parallelism dividing annotated loop iterations")
	bind := fs.String("bind", "", "parameter bindings, e.g. \"n=1024,m=64\"")
	format := fs.String("format", "dot", "output format: dot, json, or stats")
	if err := fs.Parse(args); err != nil {
		return err
	}

	src, err := readSource(*in, stdin)
	if err != nil {
		return err
	}
	level, err := paragraph.ParseLevel(*levelName)
	if err != nil {
		return err
	}
	bindings, err := parseBindings(*bind)
	if err != nil {
		return err
	}

	root, err := cparse.Parse(src)
	if err != nil {
		return err
	}
	target := cast.FindAll(root, cast.KindFunctionDecl)
	if len(target) == 0 {
		return fmt.Errorf("no function in input")
	}
	node := target[0]
	if *fn != "" {
		if node = cast.FindFunction(root, *fn); node == nil {
			return fmt.Errorf("function %q not found", *fn)
		}
	}

	g, err := paragraph.Build(node, paragraph.Options{
		Level:    level,
		Threads:  *threads,
		Bindings: bindings,
	})
	if err != nil {
		return err
	}

	switch *format {
	case "dot":
		return g.WriteDOT(stdout, node.Name)
	case "json":
		return g.WriteJSON(stdout)
	case "stats":
		s := g.Summary()
		fmt.Fprintf(stdout, "function: %s\nlevel: %s\nnodes: %d\nedges: %d\n",
			node.Name, level, s.Nodes, s.Edges)
		var types []string
		for ty := range s.EdgesByType {
			types = append(types, ty)
		}
		sort.Strings(types)
		for _, ty := range types {
			fmt.Fprintf(stdout, "  %-10s %d\n", ty, s.EdgesByType[ty])
		}
		fmt.Fprintf(stdout, "total child-edge weight: %g\nmax in-degree: %d\n",
			s.TotalWeight, s.MaxInDeg)
		return nil
	}
	return fmt.Errorf("unknown format %q", *format)
}

func readSource(path string, stdin io.Reader) (string, error) {
	if path == "" {
		b, err := io.ReadAll(stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func parseBindings(s string) (analysis.Env, error) {
	env := analysis.Env{}
	if s == "" {
		return env, nil
	}
	for _, pair := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(pair), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad binding %q (want name=value)", pair)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(kv[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("bad binding value %q: %v", kv[1], err)
		}
		env[strings.TrimSpace(kv[0])] = v
	}
	return env, nil
}
