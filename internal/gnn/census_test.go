package gnn

import (
	"fmt"
	"math/rand"
	"slices"
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

// TestInDegreeCensus pins the premise of the relations' roles (ref and
// child in model.go): ParaGraph gives every node at most one in-edge of
// every type but Ref — Child is a tree, NextToken and NextSib are chains,
// and ForExec, ForNext, ConTrue and ConFalse have one edge per loop or if
// part — so a softmax within a relation can change a message only on Ref;
// and it weighs no edge off Child, so a weight coefficient can act only
// there. It holds on every suite kernel × variant kind × level and on a
// fixed-seed batch of generated kernels (PARAGRAPH_EQUIV_TRIALS of them).
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
			for r, deg := range maxInDegree(eg) {
				if r == ref {
					refMulti = refMulti || deg > 1
				} else if deg > 1 {
					t.Errorf("%s at %v: a node has %d %v in-edges, want at most 1", what, level, deg, paragraph.EdgeType(r))
				}
				if r == child {
					continue
				}
				for _, w := range eg.Rels[r].LogW {
					if w != 0 {
						t.Errorf("%s at %v: a %v edge weighs %v, want 0 off Child", what, level, paragraph.EdgeType(r), w)
						break
					}
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
// fuzzes run on give Ref relations whose runs all have one edge, Ref
// relations with a multi-edge run, and Ref relations with both kinds, so
// those gates cover both of the engine's Ref paths; give some other
// relation a multi-edge run, so the tape checks the engine's α = 1 sum over
// several edges; and weigh some edge off Child, which the model must
// ignore.
func TestFuzzGraphsMixRunLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	var oneOnly, multi, mixed, otherMulti, otherWeighted int
	for range 40 {
		for _, s := range randomFamily(rng, 8, 2, false) {
			p := s.G.plan()
			for r, rp := range p.rels {
				long, short := false, false
				for t := range rp.runDst {
					n := rp.runStart[t+1] - rp.runStart[t]
					long, short = long || n > 1, short || n == 1
				}
				switch {
				case r != ref:
					if long {
						otherMulti++
					}
				case long && short:
					multi++
					mixed++
				case long:
					multi++
				case short:
					oneOnly++
				}
				if r != child && slices.ContainsFunc(s.G.Rels[r].LogW, func(w float64) bool { return w != 0 }) {
					otherWeighted++
				}
			}
		}
	}
	if oneOnly == 0 || multi == 0 || mixed == 0 || otherMulti == 0 || otherWeighted == 0 {
		t.Errorf("fuzz relations: Ref %d with one-edge runs only, %d with a multi-edge run, %d with both kinds; "+
			"%d others with a multi-edge run, %d weighted off Child; want each > 0",
			oneOnly, multi, mixed, otherMulti, otherWeighted)
	}
	t.Logf("fuzz relations: Ref %d with one-edge runs only, %d with a multi-edge run, %d with both kinds; "+
		"%d others with a multi-edge run, %d weighted off Child", oneOnly, multi, mixed, otherMulti, otherWeighted)
}

// untrainedOnSuite is the written list of parameters that training on the
// suite leaves as drawn, each with its reason.
var untrainedOnSuite = map[string]string{
	"conv0.w7": "ConFalse: no suite kernel has an else (ROADMAP item 33(c))",
	"conv1.w7": "ConFalse: no suite kernel has an else (ROADMAP item 33(c))",
	"conv2.w7": "ConFalse: no suite kernel has an else (ROADMAP item 33(c))",
}

// TestTrainingReachesEveryParameter is the standing rule that every
// parameter earns a gradient: a short training run on every suite kernel ×
// variant kind, at ParaGraph level and the `small` scale's shape (Hidden
// 24, 3 layers), changes every parameter tensor but exactly those on
// untrainedOnSuite.
func TestTrainingReachesEveryParameter(t *testing.T) {
	var samples []*Sample
	for _, k := range apps.Kernels() {
		for _, kind := range variants.Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			src, err := variants.Generate(k, kind, 64, 128)
			if err != nil {
				t.Fatal(err)
			}
			g, err := paragraph.BuildKernel(src, paragraph.Options{Level: paragraph.LevelParaGraph, Threads: 8})
			if err != nil {
				t.Fatal(err)
			}
			eg, err := Encode(g, int(paragraph.NumEdgeTypes))
			if err != nil {
				t.Fatal(err)
			}
			eg.WScale = 10
			i := float64(len(samples))
			samples = append(samples, &Sample{G: eg, Feats: [2]float64{0.25, 0.5}, Target: eg.MaxLogWeight()/10 + 0.01*i})
		}
	}
	m := NewModel(Config{Seed: 1, Hidden: 24, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
	before := map[string][]float64{}
	for _, p := range m.Params() {
		before[p.Name] = slices.Clone(p.Value.Data)
	}
	if _, err := m.Train(samples, samples[:4], TrainConfig{Epochs: 2, BatchSize: 16, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		changed := !slices.Equal(p.Value.Data, before[p.Name])
		if why, listed := untrainedOnSuite[p.Name]; listed && changed {
			t.Errorf("%s changed in training, but is listed as untrained (%s)", p.Name, why)
		} else if !listed && !changed {
			t.Errorf("%s holds its initial values after training on %d suite graphs", p.Name, len(samples))
		}
	}
}
