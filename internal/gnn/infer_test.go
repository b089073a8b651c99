package gnn

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"

	"paragraph/internal/paragraph"
)

// The engine's kernels reassociate floating-point sums relative to the tape
// (tiled matmuls, precomputed attention projections W_r·a, fused softmax
// scaling), so engine-vs-tape agreement is gated on relative error, not bit
// equality. Scaled targets live in roughly [0, 1], so the max(1, |tape|)
// denominator makes the bound absolute near zero and relative for large
// magnitudes.
const equivTol = 1e-9

// relErr is the relative-equivalence metric equivTol bounds.
func relErr(engine, tape float64) float64 {
	return math.Abs(engine-tape) / math.Max(1, math.Abs(tape))
}

// equivTrials returns the fuzz iteration count: the default keeps local
// `go test` fast; CI's equivalence-gate step raises it via
// PARAGRAPH_EQUIV_TRIALS.
func equivTrials(def int) int {
	if v := os.Getenv("PARAGRAPH_EQUIV_TRIALS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// initPlanCache attaches the lazy plan cache Encode installs to a graph
// assembled by hand, before it is shared across goroutines.
func initPlanCache(g *Graph) {
	if g.planBox == nil {
		g.planBox = &planBox{}
	}
}

// randomEncodedGraph builds an arbitrary encoded graph directly: random
// size (including single-node), random edges per relation (including empty
// relations and self-loops), random Child weights (including exact zeros).
func randomEncodedGraph(rng *rand.Rand, numRels int) *Graph {
	n := 1 + rng.Intn(12)
	t := &Topology{
		NumNodes: n,
		Kinds:    make([]int, n),
		SubKinds: make([]int, n),
		Rels:     make([]Relation, numRels),
	}
	g := &Graph{Topology: t, Feats: make([]float64, n), WScale: []float64{0, 0.5, 1, 10}[rng.Intn(4)]}
	for i := 0; i < n; i++ {
		t.Kinds[i] = rng.Intn(40)
		t.SubKinds[i] = rng.Intn(MaxSubKinds)
		if rng.Float64() < 0.8 { // leave some exact-zero features
			g.Feats[i] = rng.NormFloat64()
		}
	}
	for r := range t.Rels {
		if rng.Float64() < 0.25 {
			continue // empty relation
		}
		e := rng.Intn(3 * n)
		for k := 0; k < e; k++ {
			t.Rels[r].Src = append(t.Rels[r].Src, rng.Intn(n))
			t.Rels[r].Dst = append(t.Rels[r].Dst, rng.Intn(n))
			if r != child {
				continue
			}
			w := 0.0
			if rng.Float64() < 0.7 {
				w = rng.Float64() * 4
			}
			g.LogW = append(g.LogW, w)
		}
	}
	return g
}

// zeroWeights clears the Child weights of the samples' graphs in place: the
// graph-side arm of the edge-weight ablation, where the factor 1 + c·w̃ is 1
// on every Child edge.
func zeroWeights(samples ...*Sample) {
	for _, s := range samples {
		clear(s.G.LogW)
	}
}

// fuzzEngineVsTape is the shared equivalence fuzz: across random graphs
// (all relation counts, empty relations, single-node graphs), seeds, layer
// counts, both plan-cache states, and graphs with and without weights, the
// engine prediction must stay within tol relative error of the tape path.
func fuzzEngineVsTape(t *testing.T, seed int64, trials int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		numRels := 1 + rng.Intn(8)
		cfg := Config{
			Seed:      rng.Int63n(1000),
			Hidden:    []int{4, 8, 16}[rng.Intn(3)],
			Layers:    1 + rng.Intn(3),
			Relations: numRels,
		}
		unweighted := rng.Intn(2) == 0
		m := NewModel(cfg)
		g := randomEncodedGraph(rng, numRels)
		if trial%2 == 0 {
			initPlanCache(g) // exercise both the cached and per-call plan paths
		}
		s := &Sample{G: g, Feats: [2]float64{rng.Float64(), rng.Float64()}}
		if unweighted {
			zeroWeights(s)
		}
		engine := m.Predict(s)
		tape := m.PredictTape(s)
		if math.IsNaN(engine) || math.IsInf(engine, 0) {
			t.Fatalf("trial %d: engine produced %v (cfg %+v)", trial, engine, cfg)
		}
		if e := relErr(engine, tape); e > equivTol {
			t.Fatalf("trial %d: engine %v vs tape %v (rel err %v > %v, cfg %+v, nodes %d)",
				trial, engine, tape, e, equivTol, cfg, g.NumNodes)
		}
	}
}

// TestInferEngineMatchesTape is the golden relaxed-equivalence fuzz gating
// the engine at ≤1e-9 relative error.
func TestInferEngineMatchesTape(t *testing.T) {
	fuzzEngineVsTape(t, 99, equivTrials(60))
}

// TestInferEngineMatchesTapeOnRealGraph repeats the equivalence check on a
// real encoded kernel graph (the Encode path installs the plan cache) and
// across advisor-style header copies that override WScale.
func TestInferEngineMatchesTapeOnRealGraph(t *testing.T) {
	for _, threads := range []int{1, 16, 128} {
		for _, unweighted := range []bool{false, true} {
			eg := encode(t, buildTestGraph(t, threads))
			m := NewModel(Config{Seed: 5, Hidden: 16, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
			for _, wscale := range []float64{1, 10} {
				scaled := *eg // what advisor.EncodeInstance does
				scaled.WScale = wscale
				s := &Sample{G: &scaled, Feats: [2]float64{0.4, 0.6}}
				if unweighted {
					zeroWeights(s)
				}
				engine, tape := m.Predict(s), m.PredictTape(s)
				if e := relErr(engine, tape); e > equivTol {
					t.Errorf("threads=%d unweighted=%v wscale=%v: engine %v vs tape %v (rel err %v)",
						threads, unweighted, wscale, engine, tape, e)
				}
			}
		}
	}
}

// TestInferRankingMatchesTape pins what the advisor actually consumes: the
// ranking of the paper-style kernel graph across thread configurations.
// Wherever the tape separates two configurations by a clear margin, the
// engine must order them the same way.
func TestInferRankingMatchesTape(t *testing.T) {
	const margin = 1e-3
	threads := []int{1, 4, 16, 64, 256, 1024}
	var samples []*Sample
	for _, th := range threads {
		eg := encode(t, buildTestGraph(t, th))
		eg.WScale = 10
		samples = append(samples, &Sample{G: eg, Feats: [2]float64{0.5, float64(th) / 1024}})
	}
	m := NewModel(Config{Seed: 7, Relations: int(paragraph.NumEdgeTypes)})
	tape := make([]float64, len(samples))
	for i, s := range samples {
		tape[i] = m.PredictTape(s)
	}
	engine := m.PredictBatch(samples)
	for i := range samples {
		for j := range samples {
			if tape[i] < tape[j]-margin && engine[i] >= engine[j] {
				t.Errorf("tape orders threads %d (%v) below %d (%v) but engine says %v >= %v",
					threads[i], tape[i], threads[j], tape[j], engine[i], engine[j])
			}
		}
	}
}

// TestInferInvalidation pins the engine's contract with the parameters: it
// reads them in place, a change to one reaches the derived attention
// projections through refresh, and Load — which gives every parameter new
// storage — refreshes on its own.
func TestInferInvalidation(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 8))
	s := &Sample{G: eg, Feats: [2]float64{0.5, 0.5}}
	m := NewModel(Config{Seed: 11, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	m.Predict(s)

	// Direct mutation of an attention vector: without refresh the engine
	// would keep scoring with the stale projection.
	l := m.layers[0]
	l.aSrc.Value.Data[0] += 0.5
	m.refresh()
	if e := relErr(m.Predict(s), m.PredictTape(s)); e > equivTol {
		t.Errorf("after direct mutation + refresh: rel err %v", e)
	}

	// Load must refresh on its own: round-trip different weights through
	// a checkpoint and check the engine tracks them.
	donor := NewModel(Config{Seed: 99, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	var buf bytes.Buffer
	if err := donor.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Predict(s), donor.Predict(s); got != want {
		t.Errorf("after Load: engine %v, donor engine %v (stale precomputed weights?)", got, want)
	}
	if e := relErr(m.Predict(s), m.PredictTape(s)); e > equivTol {
		t.Errorf("after Load: rel err %v vs tape", e)
	}
}

// TestInferPlanSharedAcrossHeaderCopies asserts the plan is computed once
// per encoded graph even when many advisor-scaled header copies exist.
func TestInferPlanSharedAcrossHeaderCopies(t *testing.T) {
	eg := encode(t, buildTestGraph(t, 4))
	p1 := eg.plan()
	scaled := *eg
	scaled.WScale = 123
	if p2 := scaled.plan(); p2 != p1 {
		t.Error("header copy rebuilt the inference plan instead of sharing it")
	}
}

// TestPredictBatchConcurrentRace hammers the pooled workspaces: many
// goroutines run overlapping PredictBatch calls (plus single Predicts) on
// one model and every result must agree with a serial reference. Run under
// -race (CI does) this is the workspace-safety gate, and it also holds the
// parameters and the values derived from them, set before the model is
// shared, to lock-free reads.
func TestPredictBatchConcurrentRace(t *testing.T) {
	m := NewModel(Config{Seed: 3, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	rng := rand.New(rand.NewSource(4))
	var samples []*Sample
	for i := 0; i < 24; i++ {
		g := randomEncodedGraph(rng, int(paragraph.NumEdgeTypes))
		initPlanCache(g)
		samples = append(samples, &Sample{G: g, Feats: [2]float64{float64(i) / 24, 0.5}})
	}
	want := make([]float64, len(samples))
	for i, s := range samples {
		want[i] = m.Predict(s)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				if iter%3 == 0 {
					s := samples[(w+iter)%len(samples)]
					if got := m.Predict(s); got != want[(w+iter)%len(samples)] {
						errs <- fmt.Sprintf("worker %d: single predict drifted", w)
						return
					}
					continue
				}
				got := m.PredictBatch(samples)
				for i := range got {
					if got[i] != want[i] {
						errs <- fmt.Sprintf("worker %d iter %d: sample %d = %v, want %v",
							w, iter, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestInferForwardZeroAllocs is the allocation regression gate: after
// warm-up, a steady-state engine forward pass over an Encode-built graph
// (plan cached, workspace kept on the free list and right-sized)
// must not touch the heap.
func TestInferForwardZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful unraced")
	}
	eg := encode(t, buildTestGraph(t, 8))
	eg.WScale = 10
	s := &Sample{G: eg, Feats: [2]float64{0.5, 0.5}}
	m := NewModel(Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	m.Predict(s) // build the plan, grow the workspace
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(s) }); allocs != 0 {
		t.Errorf("steady-state engine forward allocates %v times per run, want 0", allocs)
	}
}

// TestPredictBatchWorkerPanicReachesCaller: a malformed family (an edge
// into a node that does not exist, written into a constructed graph's edge
// list) panics on the calling goroutine, where the serving tier's recover
// turns it into a 500, after a sound family ahead of it in the batch; the
// model predicts as before afterwards.
func TestPredictBatchWorkerPanicReachesCaller(t *testing.T) {
	m := NewModel(Config{Seed: 5, Hidden: 8, Layers: 2, Relations: 1})
	good := randomEncodedGraph(rand.New(rand.NewSource(6)), 1)
	dst := []int{1}
	topo, err := NewTopology(make([]int, 2), make([]int, 2), [][]int{{0}}, [][]int{dst})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := topo.Graph(make([]float64, 2), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	dst[0] = 102 // NewTopology keeps the list it checked
	samples := []*Sample{{G: good}, {G: bad}}
	want := m.Predict(samples[0])
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("malformed family did not panic on the caller")
			}
		}()
		m.PredictBatch(samples)
	}()
	if got := m.PredictBatch(samples[:1]); math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Errorf("after the panic the sound sample predicts %v, want %v", got[0], want)
	}
}

// TestPredictBatchEmptyAndSingle pins the degenerate batch paths.
func TestPredictBatchEmptyAndSingle(t *testing.T) {
	m := NewModel(Config{Seed: 2, Hidden: 8, Layers: 1, Relations: int(paragraph.NumEdgeTypes)})
	if got := m.PredictBatch(nil); len(got) != 0 {
		t.Error("PredictBatch(nil) non-empty")
	}
	eg := encode(t, buildTestGraph(t, 2))
	s := &Sample{G: eg, Feats: [2]float64{0.2, 0.8}}
	batch := m.PredictBatch([]*Sample{s})
	if len(batch) != 1 || batch[0] != m.Predict(s) {
		t.Errorf("single-sample batch %v vs predict %v", batch, m.Predict(s))
	}
}
