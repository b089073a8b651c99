package gnn

import (
	"fmt"
	"math/rand"
	"testing"

	"paragraph/internal/apps"
	"paragraph/internal/paragraph"
	"paragraph/internal/progen"
	"paragraph/internal/variants"
)

// maxInDegree returns, per relation, the most in-edges any node has.
func maxInDegree(g *Graph) []int {
	out := make([]int, len(g.Rels))
	for r, rel := range g.Rels {
		deg := make([]int, g.NumNodes)
		for _, d := range rel.Dst {
			deg[d]++
			out[r] = max(out[r], deg[d])
		}
	}
	return out
}

// TestInDegreeCensus pins the premise of the engine's one-edge attention
// path: ParaGraph gives every node at most one in-edge of every type but
// Ref — Child is a tree, NextToken and NextSib are chains, and ForExec,
// ForNext, ConTrue and ConFalse have one edge per loop or if part — so
// only Ref's segments take the softmax. It holds on every suite kernel ×
// variant kind × level and on a fixed-seed batch of generated kernels
// (PARAGRAPH_EQUIV_TRIALS of them). The plan's multi flag must say exactly
// whether a relation has a node of in-degree two or more.
func TestInDegreeCensus(t *testing.T) {
	levels := []paragraph.Level{paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph}
	refMulti := false
	check := func(what, src string) {
		t.Helper()
		for _, level := range levels {
			g, err := paragraph.BuildKernel(src, paragraph.Options{Level: level, Threads: 8})
			if err != nil {
				t.Fatalf("%s at %v: %v", what, level, err)
			}
			eg, err := Encode(g, int(paragraph.NumEdgeTypes))
			if err != nil {
				t.Fatal(err)
			}
			p := eg.plan()
			for r, deg := range maxInDegree(eg) {
				if p.rels[r].multi != (deg > 1) {
					t.Errorf("%s at %v: %v has in-degree up to %d but plan multi = %v",
						what, level, paragraph.EdgeType(r), deg, p.rels[r].multi)
				}
				if r == int(paragraph.Ref) {
					refMulti = refMulti || deg > 1
				} else if deg > 1 {
					t.Errorf("%s at %v: a node has %d %v in-edges, want at most 1", what, level, deg, paragraph.EdgeType(r))
				}
			}
		}
	}
	for _, k := range apps.Kernels() {
		for _, kind := range variants.Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			src, err := variants.Generate(k, kind, 64, 128)
			if err != nil {
				t.Fatal(err)
			}
			check(fmt.Sprintf("%s/%v", k.Name, kind), src)
		}
	}
	if !refMulti {
		t.Error("no suite graph has a node with two Ref in-edges: the census would pass on an engine that never takes the softmax")
	}
	rng := rand.New(rand.NewSource(56))
	for i := range equivTrials(40) {
		check(fmt.Sprintf("progen kernel %d", i), progen.Generate(rng, progen.Config{WithOMP: i%2 == 0}))
	}
}

// TestFuzzGraphsMixRunLengths: the random graphs the family and gradient
// fuzzes run on hold relations whose runs all have one edge, relations
// with a multi-edge run, and relations with both kinds, so those gates
// cover both of the engine's attention paths.
func TestFuzzGraphsMixRunLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var oneOnly, multi, mixed int
	for range 40 {
		for _, s := range randomFamily(rng, 8, 2, false) {
			p := s.G.plan()
			for _, rp := range p.rels {
				if len(rp.edge) == 0 {
					continue
				}
				if !rp.multi {
					oneOnly++
					continue
				}
				multi++
				for t := range rp.runDst {
					if rp.runStart[t+1]-rp.runStart[t] == 1 {
						mixed++
						break
					}
				}
			}
		}
	}
	if oneOnly == 0 || multi == 0 || mixed == 0 {
		t.Errorf("fuzz relations: %d with one-edge runs only, %d with a multi-edge run, %d with both kinds; want each > 0",
			oneOnly, multi, mixed)
	}
	t.Logf("fuzz relations: %d with one-edge runs only, %d with a multi-edge run, %d with both kinds", oneOnly, multi, mixed)
}
