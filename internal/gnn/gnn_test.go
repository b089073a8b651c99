package gnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paragraph/internal/graph"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/tensor"
)

// buildTestGraph returns a ParaGraph for a tiny kernel.
func buildTestGraph(t *testing.T, threads int) *graph.Graph {
	t.Helper()
	src := `
void k(double *a, int n) {
    #pragma omp parallel for
    for (int i = 0; i < 1000; i++) {
        if (a[i] > 0.0) {
            a[i] = a[i] * 2.0;
        }
    }
}`
	g, err := paragraph.BuildKernel(src, paragraph.Options{
		Level:   paragraph.LevelParaGraph,
		Threads: threads,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func encode(t *testing.T, g *graph.Graph) *Graph {
	t.Helper()
	eg, err := Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		t.Fatal(err)
	}
	return eg
}

func TestEncodeShapes(t *testing.T) {
	g := buildTestGraph(t, 1)
	eg := encode(t, g)
	if eg.NumNodes != g.NumNodes() {
		t.Errorf("nodes = %d vs %d", eg.NumNodes, g.NumNodes())
	}
	if eg.NumEdges() != g.NumEdges() {
		t.Errorf("edges = %d vs %d", eg.NumEdges(), g.NumEdges())
	}
	if len(eg.Kinds) != eg.NumNodes || len(eg.SubKinds) != eg.NumNodes {
		t.Error("code arrays wrong length")
	}
	if len(eg.Feats) != eg.NumNodes {
		t.Errorf("%d features for %d nodes", len(eg.Feats), eg.NumNodes)
	}
	if len(eg.Rels) != int(paragraph.NumEdgeTypes) {
		t.Errorf("relations = %d", len(eg.Rels))
	}
	if len(eg.LogW) != len(eg.Rels[child].Src) {
		t.Errorf("%d weights for %d Child edges", len(eg.LogW), len(eg.Rels[child].Src))
	}
	// Weighted graph: Child edges must carry positive log-weights.
	var hasWeight bool
	for _, w := range eg.LogW {
		if w > 0 {
			hasWeight = true
		}
	}
	if !hasWeight {
		t.Error("no positive child log-weights")
	}
	if eg.MaxLogWeight() <= 0 {
		t.Error("MaxLogWeight = 0")
	}
}

func TestEncodeErrors(t *testing.T) {
	bad := graph.New([]string{"t"})
	if _, err := Encode(bad, 1); err == nil {
		t.Error("empty graph encoded")
	}
	g := graph.New([]string{"a", "b"})
	g.AddNode(graph.Node{})
	g.AddNode(graph.Node{})
	g.AddEdge(0, 1, 1, 0)
	if _, err := Encode(g, 1); err == nil {
		t.Error("edge type out of relation range accepted")
	}
	corrupt := graph.New([]string{"t"})
	corrupt.AddNode(graph.Node{})
	corrupt.AddEdge(0, 5, 0, 1)
	if _, err := Encode(corrupt, 1); err == nil {
		t.Error("invalid graph encoded")
	}
}

// TestEncodeRefusesWeightOffChild: an encoded graph holds Child's weight
// column alone, so Encode refuses a graph that weighs an edge of any other
// type, naming the edge, instead of dropping the weight; a zero-weight edge
// off Child and a weighted Child edge encode.
func TestEncodeRefusesWeightOffChild(t *testing.T) {
	for _, w := range []float64{2, math.SmallestNonzeroFloat64} {
		g := graph.New(paragraph.EdgeTypeNames())
		for range 3 {
			g.AddNode(graph.Node{})
		}
		g.AddEdge(0, 1, int(paragraph.Child), 4)
		g.AddEdge(1, 2, int(paragraph.NextToken), 0)
		g.AddEdge(2, 0, int(paragraph.Ref), w)
		_, err := Encode(g, int(paragraph.NumEdgeTypes))
		if err == nil || !strings.Contains(err.Error(), "edge 2 (2→0, Ref)") {
			t.Errorf("a Ref edge of weight %v: Encode returned %v, want an error naming edge 2 (2→0, Ref)", w, err)
		}
		g.Edges[2].Weight = 0
		eg, err := Encode(g, int(paragraph.NumEdgeTypes))
		if err != nil {
			t.Fatal(err)
		}
		if want := LogWeights([]float64{4}); !slices.Equal(eg.LogW, want) {
			t.Errorf("Child weights %v, want %v", eg.LogW, want)
		}
	}
}

func TestEncodeClampsSubKinds(t *testing.T) {
	g := graph.New([]string{"t"})
	g.AddNode(graph.Node{SubKind: 9999})
	g.AddNode(graph.Node{SubKind: -3})
	eg, err := Encode(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eg.SubKinds[0] != MaxSubKinds-1 || eg.SubKinds[1] != 0 {
		t.Errorf("subkinds = %v", eg.SubKinds)
	}
}

func TestModelForwardDeterministic(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 4))
	s := &Sample{G: eg, Feats: [2]float64{0.5, 0.25}, Target: 0.3}
	m1 := NewModel(Config{Seed: 11, Relations: int(paragraph.NumEdgeTypes)})
	m2 := NewModel(Config{Seed: 11, Relations: int(paragraph.NumEdgeTypes)})
	p1 := m1.Predict(s)
	p2 := m2.Predict(s)
	if p1 != p2 {
		t.Errorf("same seed, different predictions: %v vs %v", p1, p2)
	}
	if math.IsNaN(p1) || math.IsInf(p1, 0) {
		t.Errorf("prediction = %v", p1)
	}
	m3 := NewModel(Config{Seed: 12, Relations: int(paragraph.NumEdgeTypes)})
	if m3.Predict(s) == p1 {
		t.Error("different seeds gave identical predictions (suspicious)")
	}
}

func TestModelSensitivity(t *testing.T) {
	// Predictions must react to (a) the runtime-configuration features and
	// (b) the graph weights — otherwise the representation is ignored.
	m := NewModel(Config{Seed: 3, Relations: int(paragraph.NumEdgeTypes)})
	eg1 := encode(t, buildTestGraph(t, 1))
	eg64 := encode(t, buildTestGraph(t, 64))
	s1 := &Sample{G: eg1, Feats: [2]float64{0.1, 0.1}}
	s2 := &Sample{G: eg1, Feats: [2]float64{0.9, 0.9}}
	if m.Predict(s1) == m.Predict(s2) {
		t.Error("model ignores teams/threads features")
	}
	s3 := &Sample{G: eg64, Feats: [2]float64{0.1, 0.1}}
	if m.Predict(s1) == m.Predict(s3) {
		t.Error("model ignores edge weights (threads=1 vs 64 graphs identical)")
	}
}

// TestNumParamsReasonable pins the parameter count. Each of the 3 layers
// holds 8 relation projections (32×32), Ref's attention pair (2×32),
// Child's weight coefficient (1), the self projection (32×32) and a bias
// (32): 3 × 9 313. The embeddings add 40×32 + 64×32 + 32 = 3 360 and the
// heads 2 × (32×32 + 32) + (2×16 + 16) + (48 + 1) = 2 209. At Hidden 24
// the model holds 50 tensors, and no attention vector off Ref and no
// coefficient off Child.
func TestNumParamsReasonable(t *testing.T) {
	m := NewModel(Config{Seed: 1, Hidden: 32, Relations: 8, Kinds: 40})
	if n := m.NumParams(); n != 33508 {
		t.Errorf("NumParams = %d, want 33508", n)
	}
	if m.Config().Hidden != 32 {
		t.Error("config not retained")
	}
	m = NewModel(Config{Seed: 1, Hidden: 24, Layers: 3, Relations: 8})
	if len(m.Params()) != 50 || m.NumParams() != 19580 {
		t.Errorf("Hidden 24: %d tensors of %d scalars, want 50 of 19580", len(m.Params()), m.NumParams())
	}
	names := map[string]bool{}
	for _, p := range m.Params() {
		names[p.Name] = true
	}
	for i := range 3 {
		for r := range 8 {
			for _, name := range []string{fmt.Sprintf("conv%d.asrc%d", i, r), fmt.Sprintf("conv%d.adst%d", i, r)} {
				if names[name] != (r == ref) {
					t.Errorf("parameter %s present = %v", name, names[name])
				}
			}
			if name := fmt.Sprintf("conv%d.wcoef%d", i, r); names[name] != (r == child) {
				t.Errorf("parameter %s present = %v", name, names[name])
			}
		}
	}
}

func TestGradientsFlowToAllParameterGroups(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 4))
	s := &Sample{G: eg, Feats: [2]float64{0.5, 0.5}, Target: 1}
	m := NewModel(Config{Seed: 5, Relations: int(paragraph.NumEdgeTypes), Layers: 2, Hidden: 16})
	f := nn.NewForward()
	pred := m.Forward(f, s)
	loss := f.Tape.MSE(pred, tensor.Scalar(s.Target))
	f.Backward(loss)
	grads := f.Gradients()
	var flowing int
	for _, g := range grads {
		if g.Norm2() > 0 {
			flowing++
		}
	}
	// Relations without edges in this graph legitimately get zero grads;
	// but a healthy majority of bound parameters must receive signal.
	if flowing < len(grads)/3 {
		t.Errorf("only %d/%d parameters receive gradient", flowing, len(grads))
	}
	// Specifically the output head and kind embedding must always flow.
	if g := grads[m.out.W]; g == nil || g.Norm2() == 0 {
		t.Error("no gradient at output head")
	}
	if g := grads[m.kindEmb.Table]; g == nil || g.Norm2() == 0 {
		t.Error("no gradient at kind embedding")
	}
}

// TestTrainingLearnsWeightSignal is the package's end-to-end check: build a
// synthetic task where the target is a function of the graph's total edge
// weight (the exact signal ParaGraph adds over the raw AST) and verify
// training reduces validation RMSE far below the untrained model.
func TestTrainingLearnsWeightSignal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var samples []*Sample
	for _, threads := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		g := buildTestGraph(t, threads)
		eg := encode(t, g)
		eg.WScale = 10 // keep logits tame
		for rep := 0; rep < 6; rep++ {
			tf := rng.Float64()
			// Target depends on the weight structure: more threads → smaller
			// weights → smaller target; plus the feature directly.
			target := eg.MaxLogWeight()/10 + 0.3*tf
			samples = append(samples, &Sample{
				G:      eg,
				Feats:  [2]float64{tf, tf / 2},
				Target: target,
			})
		}
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	split := len(samples) * 8 / 10
	train, val := samples[:split], samples[split:]

	m := NewModel(Config{Seed: 7, Hidden: 16, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	before := m.EvalRMSE(val, 0)
	hist, err := m.Train(train, val, TrainConfig{Epochs: 30, BatchSize: 8, LR: 5e-3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := hist.FinalValRMSE()
	if after >= before*0.5 {
		t.Errorf("training barely helped: before %v, after %v", before, after)
	}
	if after > 0.15 {
		t.Errorf("val RMSE %v too high for learnable synthetic task", after)
	}
	if len(hist.TrainLoss) != 30 || len(hist.ValRMSE) != 30 {
		t.Errorf("history lengths %d/%d", len(hist.TrainLoss), len(hist.ValRMSE))
	}
}

func TestTrainEmptySet(t *testing.T) {
	m := NewModel(Config{Seed: 1})
	if _, err := m.Train(nil, nil, TrainConfig{}); err == nil {
		t.Error("empty training set accepted")
	}
}

// determinismData is the seed-pinned training set the two checkpoint pins
// below train on.
func determinismData(t *testing.T) (train, val []*Sample) {
	var samples []*Sample
	for i, threads := range []int{1, 2, 4, 8, 16, 32} {
		eg := encode(t, buildTestGraph(t, threads))
		eg.WScale = 10
		for rep := 0; rep < 4; rep++ {
			tf := float64(4*i+rep) / 24
			samples = append(samples, &Sample{
				G: eg, Feats: [2]float64{tf, tf / 2}, Target: eg.MaxLogWeight()/10 + 0.3*tf,
			})
		}
	}
	return samples[:20], samples[20:]
}

// determinismModel is the model the checkpoint pins start from.
func determinismModel() *Model {
	return NewModel(Config{Seed: 9, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
}

// determinismConfig is the schedule the checkpoint pins train with.
var determinismConfig = TrainConfig{Epochs: 3, BatchSize: 8, Seed: 3}

// TestTrainDeterministicAcrossWorkers pins training as a function of its
// seed and data: per-sample gradients are merged in batch order, not in the
// order the workers finish, so the same run yields the same weights — the
// same Checksum — at any GOMAXPROCS, run after run. (Merged in arrival
// order, two or more workers gave a different checkpoint on every run.) The
// checkpoint the engine's gradients reach is pinned too.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	train, val := determinismData(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	checksum := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		m := determinismModel()
		if _, err := m.Train(train, val, determinismConfig); err != nil {
			t.Fatal(err)
		}
		return m.Checksum()
	}
	want := checksum(1)
	for _, procs := range []int{1, 2, 4, 2, 4} {
		if got := checksum(procs); got != want {
			t.Errorf("GOMAXPROCS %d trained checkpoint %.12s, GOMAXPROCS 1 trained %.12s", procs, got, want)
		}
	}
	// (amd64 only: an architecture that fuses multiply-adds rounds differently.)
	const engine = "0c72f99c4f337b7b1abb2ff8b5d4dbac63b2cd4dae61db7ff015f306dddda25b"
	if runtime.GOARCH == "amd64" && want != engine {
		t.Errorf("trained checkpoint %.12s, want %.12s", want, engine)
	}
}

// TestTrainLoopReachesTapeCheckpoint pins the loop apart from the numbers
// fed into it: nn.Train driven by the tape's gradients still reaches the
// checkpoint PR 22's gnn.Model.Train reached from the same seed and data,
// bit for bit, at any GOMAXPROCS — so the shuffle, the slot-order merge,
// clipping and Adam are unchanged, whatever computes the gradients. Both
// pins hash the parameters the model holds: the attention vectors off Ref
// and the coefficients off Child, which that model also held, left their
// seeded values unchanged, and the pins leave them out.
func TestTrainLoopReachesTapeCheckpoint(t *testing.T) {
	train, val := determinismData(t)
	const pr22 = "7b80735cd2c142ef0320eca8f7d6b3f60100b01c36f775ef62b76d0a374d5e30"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		m := determinismModel()
		if _, err := nn.Train(m.params, len(train), determinismConfig, tapeGradients(m, train),
			func() float64 { m.refresh(); return m.EvalRMSE(val, 0) }); err != nil {
			t.Fatal(err)
		}
		if got := m.Checksum(); runtime.GOARCH == "amd64" && got != pr22 {
			t.Errorf("GOMAXPROCS %d: tape-trained checkpoint %.12s, PR 22 trained %.12s from the same seed and data", procs, got, pr22)
		}
	}
}

func TestTrainDeterministicAcrossWorkerCounts(t *testing.T) {
	// The same configuration predicts the same value whatever GOMAXPROCS
	// is: gradients merge in batch order (TestTrainDeterministicAcrossWorkers
	// holds the whole checkpoint to that).
	eg := encode(t, buildTestGraph(t, 4))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mk := func(procs int) float64 {
		runtime.GOMAXPROCS(procs)
		m := NewModel(Config{Seed: 9, Hidden: 8, Layers: 1, Relations: int(paragraph.NumEdgeTypes)})
		var samples []*Sample
		for i := 0; i < 16; i++ {
			samples = append(samples, &Sample{G: eg, Feats: [2]float64{float64(i) / 16, 0}, Target: float64(i) / 16})
		}
		_, err := m.Train(samples, samples, TrainConfig{Epochs: 2, BatchSize: 4, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return m.Predict(samples[0])
	}
	p1a := mk(1)
	p1b := mk(1)
	if p1a != p1b {
		t.Errorf("same-config training not deterministic: %v vs %v", p1a, p1b)
	}
	for _, procs := range []int{2, 4} {
		if p := mk(procs); p != p1a {
			t.Errorf("GOMAXPROCS settings diverge: %v at 1, %v at %d", p1a, p, procs)
		}
	}
}

func TestPredictAllMatchesPredict(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 2))
	m := NewModel(Config{Seed: 2, Hidden: 8, Layers: 1, Relations: int(paragraph.NumEdgeTypes)})
	var samples []*Sample
	for i := 0; i < 10; i++ {
		samples = append(samples, &Sample{G: eg, Feats: [2]float64{float64(i) / 10, 0.5}})
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	batch := m.PredictAll(samples)
	for i, s := range samples {
		if single := m.Predict(s); single != batch[i] {
			t.Errorf("sample %d: %v vs %v", i, single, batch[i])
		}
	}
	if got := m.PredictAll(nil); len(got) != 0 {
		t.Error("PredictAll(nil) non-empty")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	// The serving batcher relies on batch results being interchangeable with
	// per-sample results; assert exact agreement (well under the 1e-9 the
	// service contract promises).
	m := NewModel(Config{Seed: 4, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	var samples []*Sample
	for _, threads := range []int{1, 4, 16, 64} {
		eg := encode(t, buildTestGraph(t, threads))
		eg.WScale = 10
		for i := 0; i < 3; i++ {
			samples = append(samples, &Sample{G: eg, Feats: [2]float64{float64(i) / 3, 0.4}})
		}
	}
	batch := m.PredictBatch(samples)
	if len(batch) != len(samples) {
		t.Fatalf("batch len = %d, want %d", len(batch), len(samples))
	}
	for i, s := range samples {
		if single := m.Predict(s); math.Abs(single-batch[i]) > 1e-9 {
			t.Errorf("sample %d: batch %v vs single %v", i, batch[i], single)
		}
	}
	if got := m.PredictBatch(nil); len(got) != 0 {
		t.Error("PredictBatch(nil) non-empty")
	}
}

// TestTrainedModelMatchesItsCheckpoint: the values derived from the
// parameters are current after Train (its validation refreshes them after
// the last step) and after Load (which refreshes them from the loaded
// values): a trained model, and a differently seeded one loaded from its
// checkpoint, predict the same bits.
func TestTrainedModelMatchesItsCheckpoint(t *testing.T) {
	train, val := determinismData(t)
	m := determinismModel()
	if _, err := m.Train(train, val, determinismConfig); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	cfg.Seed++
	loaded := NewModel(cfg)
	if _, err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	for i, s := range append(train, val...) {
		if got, want := m.Predict(s), loaded.Predict(s); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("sample %d: trained model predicts %v, its checkpoint %v", i, got, want)
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 4))
	s := &Sample{G: eg, Feats: [2]float64{0.3, 0.7}}
	cfg := Config{Seed: 21, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)}
	m1 := NewModel(cfg)
	want := m1.Predict(s)

	var buf bytes.Buffer
	if err := m1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Different seed → different weights until loaded.
	m2 := NewModel(Config{Seed: 99, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	if m2.Predict(s) == want {
		t.Fatal("fresh model coincidentally identical; test is vacuous")
	}
	if _, err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got := m2.Predict(s); got != want {
		t.Errorf("prediction after load = %v, want %v", got, want)
	}
	// Architecture mismatch is rejected.
	m3 := NewModel(Config{Seed: 1, Hidden: 16, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	var buf2 bytes.Buffer
	if err := m1.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := m3.Load(&buf2); err == nil {
		t.Error("checkpoint loaded into mismatched architecture")
	}
}

func TestEvalRMSEEmptyAndExact(t *testing.T) {
	m := NewModel(Config{Seed: 2, Hidden: 8, Layers: 1})
	if m.EvalRMSE(nil, 0) != 0 {
		t.Error("empty eval not 0")
	}
	h := History{}
	if !math.IsInf(h.FinalValRMSE(), 1) {
		t.Error("empty history RMSE should be +Inf")
	}
}

// TestTopologyGraphsShareStructure: graphs made from one Topology equal
// Encode's field for field, share it — node codes, edge lists and plan cache
// — by pointer, and a weight column given to both, and are one family — with
// one thread count's weight column the same base — to the engine's grouping.
func TestTopologyGraphsShareStructure(t *testing.T) {
	want := encode(t, buildTestGraph(t, 4))
	src, dst := make([][]int, len(want.Rels)), make([][]int, len(want.Rels))
	for r, rel := range want.Rels {
		src[r], dst[r] = rel.Src, rel.Dst
	}
	topo, err := NewTopology(want.Kinds, want.SubKinds, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	a, err := topo.Graph(slices.Clone(want.Feats), want.LogW)
	if err != nil {
		t.Fatal(err)
	}
	b, err := topo.Graph(slices.Clone(want.Feats), want.LogW)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes != want.NumNodes || !slices.Equal(a.Kinds, want.Kinds) || !slices.Equal(a.SubKinds, want.SubKinds) ||
		!slices.Equal(a.Feats, want.Feats) || !slices.Equal(a.LogW, want.LogW) || a.WScale != want.WScale || len(a.Rels) != len(want.Rels) {
		t.Fatal("Topology.Graph differs from Encode in its node or weight columns")
	}
	for r := range want.Rels {
		if !slices.Equal(a.Rels[r].Src, want.Rels[r].Src) || !slices.Equal(a.Rels[r].Dst, want.Rels[r].Dst) {
			t.Fatalf("Topology.Graph differs from Encode in relation %d", r)
		}
		if (a.Rels[r].Src == nil) != (want.Rels[r].Src == nil) {
			t.Fatalf("relation %d: empty relations must stay nil, as Encode leaves them", r)
		}
	}
	if a.Topology != topo || b.Topology != topo || &a.LogW[0] != &b.LogW[0] || topo.planBox == nil || a.plan() != b.plan() {
		t.Fatal("sibling graphs do not share the topology, its inference plan and their weight column")
	}
	if !sameTopology(a, b) || !sameWeights(a, b) {
		t.Fatal("sibling graphs are not one family at one weighting")
	}
	b.WScale = 7 // a caller scaling its own header
	if a.WScale != 1 {
		t.Fatal("WScale is shared between sibling graphs")
	}

	if _, err := topo.Graph(make([]float64, want.NumNodes+1), want.LogW); err == nil {
		t.Error("feature column of the wrong length accepted")
	}
	if _, err := topo.Graph(want.Feats, want.LogW[1:]); err == nil {
		t.Error("weight column of the wrong length accepted")
	}
	if _, err := NewTopology(want.Kinds, want.SubKinds, src[:child], dst[:child]); err == nil {
		t.Error("topology without a Child relation accepted")
	}
	src[child] = append([]int{want.NumNodes}, src[child][1:]...)
	if _, err := NewTopology(want.Kinds, want.SubKinds, src, dst); err == nil {
		t.Error("edge endpoint out of range accepted")
	}
	if _, err := NewTopology(nil, nil, nil, nil); err == nil {
		t.Error("empty topology accepted")
	}
}
