// Property tests driving randomly generated programs through the whole
// static pipeline: lexer → parser, ParaGraph at all
// three levels, static analysis, and GNN encoding. Any crash, parse error,
// invalid graph, or non-finite cost is a bug in one of those layers.
package progen

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/gnn"
	"paragraph/internal/paragraph"
)

const trials = 120

func TestGeneratedProgramsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < trials; i++ {
		src := Generate(rng, Config{WithOMP: i%2 == 0})
		if _, err := cparse.Parse(src); err != nil {
			t.Fatalf("trial %d: parse error: %v\n%s", i, err, src)
		}
	}
}

func TestGeneratedParaGraphInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := analysis.Env{"n": 64, "m": 32}
	for i := 0; i < trials; i++ {
		src := Generate(rng, Config{WithOMP: i%2 == 0})
		for _, level := range []paragraph.Level{
			paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
		} {
			g, err := paragraph.BuildKernel(src, paragraph.Options{
				Level: level, Threads: 4, Bindings: env,
			})
			if err != nil {
				t.Fatalf("trial %d level %v: %v\n%s", i, level, err, src)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("trial %d level %v: invalid graph: %v", i, level, err)
			}
			counts := g.CountByType()
			// The Child edges always form a spanning tree.
			if counts[int(paragraph.Child)] != g.NumNodes()-1 {
				t.Fatalf("trial %d level %v: child edges %d != nodes-1 %d",
					i, level, counts[int(paragraph.Child)], g.NumNodes()-1)
			}
			switch level {
			case paragraph.LevelRawAST:
				if g.NumEdges() != g.NumNodes()-1 {
					t.Fatalf("trial %d: RawAST has non-child edges", i)
				}
				for _, e := range g.Edges {
					if e.Weight != 1 {
						t.Fatalf("trial %d: RawAST weight %v", i, e.Weight)
					}
				}
			case paragraph.LevelAugmentedAST:
				// NextToken chains terminals: exactly terminals-1 edges.
				terms := 0
				inDeg := make([]int, g.NumNodes())
				for _, e := range g.Edges {
					if e.Type == int(paragraph.NextToken) {
						terms++
						inDeg[e.Dst]++
					}
				}
				for v, d := range inDeg {
					if d > 1 {
						t.Fatalf("trial %d: node %d has %d NextToken in-edges", i, v, d)
					}
				}
			case paragraph.LevelParaGraph:
				for _, e := range g.Edges {
					if e.Type == int(paragraph.Child) && e.Weight <= 0 {
						t.Fatalf("trial %d: non-positive child weight %v", i, e.Weight)
					}
					if e.Type != int(paragraph.Child) && e.Weight != 0 {
						t.Fatalf("trial %d: weighted non-child edge", i)
					}
				}
			}
		}
	}
}

func TestGeneratedAnalysisIsFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	env := analysis.Env{"n": 128, "m": 16}
	for i := 0; i < trials; i++ {
		src := Generate(rng, Config{WithOMP: true})
		fn, err := cparse.ParseFunction(src)
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		kc := analysis.AnalyzeKernel(fn, env, 50)
		for name, v := range map[string]float64{
			"flops": kc.Flops, "intops": kc.IntOps, "loads": kc.Loads,
			"stores": kc.Stores, "branches": kc.Branches,
			"iters": kc.TotalIters, "transfer": kc.TransferBytes,
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("trial %d: %s = %v\n%s", i, name, v, src)
			}
		}
	}
}

func TestGeneratedGraphsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < trials/2; i++ {
		src := Generate(rng, Config{WithOMP: true})
		g, err := paragraph.BuildKernel(src, paragraph.Options{
			Level: paragraph.LevelParaGraph, Threads: 8,
			Bindings: analysis.Env{"n": 64, "m": 64},
		})
		if err != nil {
			t.Fatalf("trial %d: %v", i, err)
		}
		eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
		if err != nil {
			t.Fatalf("trial %d: encode: %v", i, err)
		}
		if eg.NumNodes != g.NumNodes() || eg.NumEdges() != g.NumEdges() {
			t.Fatalf("trial %d: encode changed counts", i)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Generate(rand.New(rand.NewSource(7)), Config{WithOMP: true})
	b := Generate(rand.New(rand.NewSource(7)), Config{WithOMP: true})
	if a != b {
		t.Error("same seed produced different programs")
	}
	c := Generate(rand.New(rand.NewSource(8)), Config{WithOMP: true})
	if a == c {
		t.Error("different seeds produced identical programs")
	}
}

func TestGeneratorRespectsOMPFlag(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sawPragma := false
	for i := 0; i < 50; i++ {
		src := Generate(rng, Config{WithOMP: true})
		if strings.Contains(src, "#pragma omp") {
			sawPragma = true
			break
		}
	}
	if !sawPragma {
		t.Error("WithOMP never produced a pragma in 50 programs")
	}
	for i := 0; i < 20; i++ {
		src := Generate(rng, Config{WithOMP: false})
		if strings.Contains(src, "#pragma") {
			t.Error("pragma without WithOMP")
		}
	}
}
