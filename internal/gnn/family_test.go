package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"paragraph/internal/apps"
	"paragraph/internal/paragraph"
	"paragraph/internal/progen"
	"paragraph/internal/tensor"
	"paragraph/internal/variants"
)

// The family contract is bit-identity, not a tolerance: PredictBatch(ss)[i]
// has the same bits as Predict(ss[i]) whatever else is in the batch and in
// whatever order. These tests hold the engine to it.

// assertBatchBitIdentical evaluates batch through PredictBatch and through
// PredictAll in one chunk and in three (GOMAXPROCS 1 and 3), and compares every prediction's bit
// pattern with a lone Predict of the same sample.
func assertBatchBitIdentical(t *testing.T, m *Model, batch []*Sample, what string) {
	t.Helper()
	want := make([]uint64, len(batch))
	for i, s := range batch {
		want[i] = math.Float64bits(m.Predict(s))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	predictAll := func(procs int) []float64 {
		runtime.GOMAXPROCS(procs)
		return m.PredictAll(batch)
	}
	for name, got := range map[string][]float64{
		"PredictBatch": m.PredictBatch(batch),
		"PredictAll/1": predictAll(1),
		"PredictAll/3": predictAll(3),
	} {
		for i := range batch {
			if math.Float64bits(got[i]) != want[i] {
				t.Fatalf("%s: %s[%d] = %v (%#x), Predict = %v (%#x), batch of %d",
					what, name, i, got[i], math.Float64bits(got[i]), math.Float64frombits(want[i]), want[i], len(batch))
			}
		}
	}
}

// perturb derives a family member from g: the same topology with some
// feature rows and some edge weights redrawn. share keeps the topology
// slices pointer-equal (a header copy); otherwise they are deep-copied, so
// grouping has to compare elements. featP and weightP are the per-row and
// per-edge redraw probabilities (0 leaves that part shared with g).
func perturb(rng *rand.Rand, g *Graph, share bool, featP, weightP float64) *Graph {
	c := *g
	if !share {
		c.Kinds = append([]int(nil), g.Kinds...)
		c.SubKinds = append([]int(nil), g.SubKinds...)
	}
	if featP > 0 {
		c.Feats = g.Feats.Clone()
		for i := range c.Feats.Data {
			if rng.Float64() < featP {
				c.Feats.Data[i] = rng.NormFloat64()
			}
		}
	}
	c.Rels = make([]Relation, len(g.Rels))
	for r, rel := range g.Rels {
		if !share {
			rel.Src = append([]int(nil), rel.Src...)
			rel.Dst = append([]int(nil), rel.Dst...)
		}
		if weightP > 0 {
			rel.LogW = append([]float64(nil), rel.LogW...)
			for e := range rel.LogW {
				if rng.Float64() < weightP {
					rel.LogW[e] = rng.Float64() * 4
				}
			}
		}
		c.Rels[r] = rel
	}
	return &c
}

// randomFamily returns size samples over one random topology: the original,
// then perturbed members covering zero dirty rows, a few, and all of them,
// weightings that repeat and weightings that are new.
func randomFamily(rng *rand.Rand, numRels, size int, planCache bool) []*Sample {
	g := randomEncodedGraph(rng, numRels)
	if planCache {
		initPlanCache(g)
	}
	graphs := []*Graph{g}
	for len(graphs) < size {
		from := graphs[rng.Intn(len(graphs))] // re-perturbing a member re-uses its weighting
		featP := []float64{0, 0.1, 0.5, 1}[rng.Intn(4)]
		weightP := []float64{0, 0, 0.2, 1}[rng.Intn(4)]
		graphs = append(graphs, perturb(rng, from, rng.Intn(2) == 0, featP, weightP))
	}
	out := make([]*Sample, size)
	for i, g := range graphs {
		out[i] = &Sample{G: g, Feats: [2]float64{rng.Float64(), rng.Float64()}}
	}
	return out
}

// fuzzModel draws a model and whether its trial's graphs go unweighted.
func fuzzModel(rng *rand.Rand, numRels int) (*Model, bool) {
	cfg := Config{
		Seed:      rng.Int63n(1000),
		Hidden:    []int{4, 8, 16}[rng.Intn(3)],
		Layers:    1 + rng.Intn(3),
		Relations: numRels,
	}
	return NewModel(cfg), rng.Intn(4) == 0
}

// TestFamilyMatchesPerSampleFuzz is the family ≡ per-sample gate: random
// topologies × random feature-row and edge-weight perturbations, with two
// families interleaved sample by sample, families longer than the
// retained-base bound, repeated *Sample and *Graph pointers, a WScale-only
// sibling, both plan-cache states and graphs without weights, in shuffled
// order.
func TestFamilyMatchesPerSampleFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < equivTrials(40); trial++ {
		numRels := 1 + rng.Intn(8)
		m, unweighted := fuzzModel(rng, numRels)
		a := randomFamily(rng, numRels, 2+rng.Intn(2*maxBases+4), trial%3 != 0)
		b := randomFamily(rng, numRels, 1+rng.Intn(6), trial%3 != 1)
		var batch []*Sample
		for i := 0; i < len(a) || i < len(b); i++ { // interleave the two families
			if i < len(a) {
				batch = append(batch, a[i])
			}
			if i < len(b) {
				batch = append(batch, b[i])
			}
		}
		batch = append(batch, a[0]) // the same *Sample twice
		batch = append(batch, &Sample{G: a[len(a)-1].G, Feats: [2]float64{0.25, 0.75}})
		rescaled := *a[0].G // equal in everything but WScale: must not share a base
		rescaled.WScale = a[0].G.WScale + 1
		batch = append(batch, &Sample{G: &rescaled, Feats: a[0].Feats})
		if trial%2 == 0 {
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
		}
		if unweighted {
			zeroWeights(batch...)
		}
		assertBatchBitIdentical(t, m, batch, fmt.Sprintf("trial %d (cfg %+v)", trial, m.cfg))
	}
}

// TestFamilyEdgeCases pins the degenerate shapes by construction rather than
// by luck of the fuzz: a single-node graph, a graph whose relations are all
// empty, a member equal to its base (zero dirty rows), one with every row
// dirty, and a family of distinct weightings twice as long as maxBases whose
// members then recur.
func TestFamilyEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const numRels = 3
	single := &Graph{NumNodes: 1, Kinds: []int{3}, SubKinds: []int{1}, Feats: tensor.New(1, 1), Rels: make([]Relation, numRels), WScale: 1}
	single.Rels[1] = Relation{Src: []int{0}, Dst: []int{0}, LogW: []float64{0.5}} // a self-loop
	edgeless := &Graph{NumNodes: 4, Kinds: []int{1, 2, 3, 4}, SubKinds: make([]int, 4), Feats: tensor.New(4, 1), Rels: make([]Relation, numRels), WScale: 2}
	big := randomEncodedGraph(rng, numRels)
	for big.NumEdges() == 0 {
		big = randomEncodedGraph(rng, numRels)
	}
	m := NewModel(Config{Seed: 9, Hidden: 8, Layers: 3, Relations: numRels})
	for _, unweighted := range []bool{false, true} {
		for name, g := range map[string]*Graph{"single-node": single, "edgeless": edgeless, "random": big} {
			batch := []*Sample{{G: g, Feats: [2]float64{0.1, 0.2}}}
			batch = append(batch, &Sample{G: perturb(rng, g, false, 0, 0), Feats: [2]float64{0.3, 0.4}}) // zero dirty rows
			batch = append(batch, &Sample{G: perturb(rng, g, true, 1, 1), Feats: [2]float64{0.5, 0.6}})  // every row dirty
			var weightings []*Graph
			for i := 0; i < 2*maxBases; i++ {
				weightings = append(weightings, perturb(rng, g, i%2 == 0, 0, 1))
			}
			for round := 0; round < 2; round++ { // second round: every weighting recurs, kept or not
				for _, wg := range weightings {
					batch = append(batch, &Sample{G: perturb(rng, wg, true, 0.2, 0), Feats: [2]float64{rng.Float64(), 0.5}})
				}
			}
			if unweighted {
				zeroWeights(batch...)
			}
			assertBatchBitIdentical(t, m, batch, fmt.Sprintf("%s unweighted=%v", name, unweighted))
		}
	}
}

// TestFamilyGrouping pins the grouping rule itself: members chain in batch
// order, interleaved families separate, and a graph that differs in WScale,
// a node code or one edge endpoint starts its own family however much else
// it shares.
func TestFamilyGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomEncodedGraph(rng, 4)
	for g.NumEdges() == 0 || g.NumNodes < 2 {
		g = randomEncodedGraph(rng, 4)
	}
	other := randomEncodedGraph(rng, 4)
	other.NumNodes++ // whatever was drawn, not g's shape
	other.Kinds, other.SubKinds = append(other.Kinds, 0), append(other.SubKinds, 0)
	other.Feats = tensor.New(other.NumNodes, 1)

	rescaled := *g
	rescaled.WScale++
	recoded := perturb(rng, g, false, 0, 0)
	recoded.Kinds[0]++
	rewired := perturb(rng, g, false, 0, 0)
	for r := range rewired.Rels {
		if len(rewired.Rels[r].Dst) > 0 {
			rewired.Rels[r].Dst[0] = (rewired.Rels[r].Dst[0] + 1) % g.NumNodes
			break
		}
	}
	graphs := []*Graph{g, other, perturb(rng, g, false, 1, 1), &rescaled, g, recoded, other, rewired, perturb(rng, g, true, 0.5, 0)}
	samples := make([]*Sample, len(graphs))
	for i, g := range graphs {
		samples[i] = &Sample{G: g}
	}
	var f families
	f.group(samples)
	var got [][]int
	for _, first := range f.heads {
		var chain []int
		for i := first; i >= 0; i = f.next[i] {
			chain = append(chain, i)
		}
		got = append(got, chain)
	}
	want := "[[0 2 4 8] [1 6] [3] [5] [7]]"
	if fmt.Sprint(got) != want {
		t.Errorf("families = %v, want %s", got, want)
	}
}

// ompFamily builds one progen kernel at several (threads, bindings) points,
// giving its parallel loop the num_threads clause a CPU variant carries, and
// encodes each: the way a real grid arises, generated instead of
// hand-picked.
func ompFamily(t *testing.T, rng *rand.Rand) []*Sample {
	t.Helper()
	src := progen.Generate(rng, progen.Config{WithOMP: true})
	var out []*Sample
	for _, bind := range []map[string]float64{{"n": 64, "m": 8}, {"n": 4096, "m": 512}} {
		for _, threads := range []int{1, 4, 24, 4, 1} {
			withClause := strings.Replace(src, "#pragma omp parallel for", fmt.Sprintf("#pragma omp parallel for num_threads(%d)", threads), 1)
			g, err := paragraph.BuildKernel(withClause, paragraph.Options{Level: paragraph.LevelParaGraph, Threads: threads, Bindings: bind})
			if err != nil {
				t.Fatalf("progen kernel: %v\n%s", err, withClause)
			}
			eg, err := Encode(g, int(paragraph.NumEdgeTypes))
			if err != nil {
				t.Fatal(err)
			}
			eg.WScale = 12
			out = append(out, &Sample{G: eg, Feats: [2]float64{0, float64(threads) / 24}})
		}
	}
	return out
}

// TestFamilyMatchesPerSampleOnGeneratedKernels repeats the gate on families
// that come out of the real front end: progen kernels built at several
// thread counts and bindings.
func TestFamilyMatchesPerSampleOnGeneratedKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < equivTrials(40)/4; trial++ {
		m, unweighted := fuzzModel(rng, int(paragraph.NumEdgeTypes))
		batch := append(ompFamily(t, rng), ompFamily(t, rng)...)
		if unweighted {
			zeroWeights(batch...)
		}
		assertBatchBitIdentical(t, m, batch, fmt.Sprintf("generated trial %d", trial))
	}
}

// matmulGPUGrid encodes the 48 points of matmul's default V100 grid in the
// advisor's enumeration order (kind-major, then teams, then threads).
func matmulGPUGrid(tb testing.TB) []*Sample {
	grid := gpuGrid(tb, "matmul", map[string]float64{"n": 512})
	if len(grid) != 48 {
		tb.Fatalf("matmul GPU grid has %d points, want 48", len(grid))
	}
	return grid
}

// gpuGrid encodes a suite kernel's default V100 grid at bindings, in the
// advisor's enumeration order (kind-major, then teams, then threads): 12
// points per GPU variant kind the kernel admits.
func gpuGrid(tb testing.TB, name string, bindings map[string]float64) []*Sample {
	return gpuGridOver(tb, name, bindings, []int{16, 64, 128, 256}, []int{64, 128, 256})
}

// gpuGridOver is gpuGrid over the given team and thread counts.
func gpuGridOver(tb testing.TB, name string, bindings map[string]float64, teamCounts, threadCounts []int) []*Sample {
	tb.Helper()
	k, ok := apps.ByName(name)
	if !ok {
		tb.Fatalf("no %s kernel", name)
	}
	var grid []*Sample
	for _, kind := range variants.Kinds() {
		if !kind.IsGPU() || (kind.IsCollapse() && !k.Collapsible) {
			continue
		}
		for _, teams := range teamCounts {
			for _, threads := range threadCounts {
				src, err := variants.Generate(k, kind, teams, threads)
				if err != nil {
					tb.Fatal(err)
				}
				g, err := paragraph.BuildKernel(src, paragraph.Options{Level: paragraph.LevelParaGraph, Threads: threads, Bindings: bindings})
				if err != nil {
					tb.Fatal(err)
				}
				eg, err := Encode(g, int(paragraph.NumEdgeTypes))
				if err != nil {
					tb.Fatal(err)
				}
				eg.WScale = 12
				grid = append(grid, &Sample{G: eg, Feats: [2]float64{float64(teams) / 256, float64(threads) / 256}})
			}
		}
	}
	return grid
}

// TestFamilyInPlaceGridOrder walks a GPU grid in the order variants emits
// it — teams outer, threads inner — with more thread counts, and so more
// weightings, than maxBases: consecutive members alternate between bases,
// and the weightings past the bound run in place on the first member's
// slot, each followed by members that read that slot again. Every member
// must match a lone Predict bit for bit, which holds only if each in-place
// member gives its base's slot back exactly as it found it. At five layers
// a teams change reaches a variable's declaration, whose Ref segment then
// reads source scores a previous member rebuilt: three layers of it stop
// short, so only the deeper model sees a score block left unrestored.
func TestFamilyInPlaceGridOrder(t *testing.T) {
	teams, threads := []int{16, 64, 256}, []int{32, 64, 128, 256, 512, 1024}
	grid := gpuGridOver(t, "matmul", map[string]float64{"n": 4096}, teams, threads)
	per := len(teams) * len(threads) // one family per variant kind
	for k := 0; k < len(grid); k += per {
		var weightings []*Graph
		for _, s := range grid[k : k+per] {
			if !slices.ContainsFunc(weightings, func(g *Graph) bool { return sameWeights(g, s.G) }) {
				weightings = append(weightings, s.G)
			}
		}
		if len(weightings) <= maxBases {
			t.Fatalf("family %d has %d weightings, want more than maxBases = %d", k/per, len(weightings), maxBases)
		}
	}
	for _, unweighted := range []bool{false, true} {
		if unweighted {
			zeroWeights(grid...)
		}
		for _, layers := range []int{3, 5} {
			m := NewModel(Config{Seed: 1, Hidden: 24, Layers: layers, Relations: int(paragraph.NumEdgeTypes)})
			assertBatchBitIdentical(t, m, grid, fmt.Sprintf("matmul GPU grid, %d layers, unweighted=%v", layers, unweighted))
		}
	}
}

// TestPredictBatchGridAllocs: family evaluation keeps its per-call state in
// the model's workspace, so a whole 48-point grid allocates what a single
// sample does — the result slice. So does one batch of several kernels'
// grids whose node counts run small → large → small: after one warm call
// the workspace's buffers have grown to fit the largest family and every
// smaller one reuses them. It holds at any GOMAXPROCS and across a
// collection, which leaves the model's workspaces where they were.
func TestPredictBatchGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful unraced")
	}
	grid := matmulGPUGrid(t)
	var mixed []*Sample
	for _, name := range []string{"pf_sum_weights", "gauss_seidel_sweep", "transpose"} {
		k, _ := apps.ByName(name)
		bindings := map[string]float64{}
		for _, p := range k.Params {
			bindings[p.Name] = float64(p.Values[0])
		}
		mixed = append(mixed, gpuGrid(t, name, bindings)...)
	}
	m := NewModel(Config{Seed: 1, Hidden: 24, Relations: int(paragraph.NumEdgeTypes)})
	m.PredictBatch(grid) // build the plans, grow the workspace
	m.PredictBatch(mixed)
	runtime.GC()
	one := testing.AllocsPerRun(20, func() { m.PredictBatch(grid[:1]) })
	all := testing.AllocsPerRun(20, func() { m.PredictBatch(grid) })
	if one != 1 || all != one {
		t.Errorf("PredictBatch allocates %v times for one sample and %v for the %d-point grid, want 1 and 1",
			one, all, len(grid))
	}
	if got := testing.AllocsPerRun(20, func() { m.PredictBatch(mixed) }); got != 1 {
		t.Errorf("PredictBatch allocates %v times for %d points of three kernels' grids, want 1", got, len(mixed))
	}
}

// TestFamilyConcurrentSharedGraphs runs overlapping PredictBatch calls whose
// batches share graphs (and so plans, topology slices and base candidates)
// across goroutines; under -race this is the gate that family state never
// leaks out of a call's own workspace.
func TestFamilyConcurrentSharedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const numRels = 5
	m := NewModel(Config{Seed: 3, Hidden: 8, Layers: 3, Relations: numRels})
	batch := append(randomFamily(rng, numRels, 12, true), randomFamily(rng, numRels, 7, false)...)
	want := make([]float64, len(batch))
	for i, s := range batch {
		want[i] = m.Predict(s)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := append([]*Sample(nil), batch...)
			order := rand.New(rand.NewSource(int64(w))).Perm(len(mine))
			for i, j := range order {
				mine[i] = batch[j]
			}
			for iter := 0; iter < 10; iter++ {
				got := m.PredictBatch(mine)
				for i, j := range order {
					if math.Float64bits(got[i]) != math.Float64bits(want[j]) {
						errs <- fmt.Sprintf("worker %d iter %d: sample %d = %v, want %v", w, iter, j, got[i], want[j])
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

// TestWorkspacesBoundedByCallers: k goroutines predicting on one model at
// once leave it holding at most k workspaces, and after a collection a run
// of serial calls takes every workspace from those it holds, allocating
// none.
func TestWorkspacesBoundedByCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const numRels = 4
	batch := append(randomFamily(rng, numRels, 6, true), randomFamily(rng, numRels, 5, false)...)
	for _, k := range []int{1, 2, 4, 8} {
		m := NewModel(Config{Seed: 4, Hidden: 8, Layers: 2, Relations: numRels})
		var wg sync.WaitGroup
		for g := 0; g < k; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for iter := 0; iter < 20; iter++ {
					m.PredictBatch(batch)
				}
			}()
		}
		wg.Wait()
		held := append([]*workspace(nil), m.ws.free...)
		if len(held) < 1 || len(held) > k {
			t.Fatalf("%d concurrent callers left the model holding %d workspaces, want 1 to %d", k, len(held), k)
		}
		runtime.GC()
		for iter := 0; iter < 20; iter++ {
			m.PredictBatch(batch)
			m.Predict(batch[iter%len(batch)])
		}
		if len(m.ws.free) != len(held) {
			t.Fatalf("k=%d: serial calls left %d workspaces, want the %d held before", k, len(m.ws.free), len(held))
		}
		for _, ws := range m.ws.free {
			if !slices.Contains(held, ws) {
				t.Fatalf("k=%d: a serial call after a collection allocated a new workspace", k)
			}
		}
	}
}

// chainGraph is an n-node path of one relation: ≈ 2.6 kB of slot buffer
// per node at Hidden 32 / Layers 3.
func chainGraph(n int) *Graph {
	g := &Graph{NumNodes: n, Kinds: make([]int, n), SubKinds: make([]int, n), Feats: tensor.New(n, 1),
		Rels: []Relation{{Src: make([]int, n-1), Dst: make([]int, n-1), LogW: make([]float64, n-1)}}}
	for i := range n - 1 {
		g.Rels[0].Src[i], g.Rels[0].Dst[i], g.Rels[0].LogW[i] = i, i+1, 1
	}
	return g
}

// TestWorkspaceOverCapNotKept: a graph whose workspace outgrows
// maxRetained leaves the model holding no workspace over the cap, serving's
// and training's alike, and the next call on a small graph grows a fresh
// one that the model keeps. The undo log counts too: a family whose base
// slot fits under the cap, but whose in-place member's log takes the
// workspace over it, leaves none either.
func TestWorkspaceOverCapNotKept(t *testing.T) {
	const n = 8192
	big := chainGraph(n)
	small := randomEncodedGraph(rand.New(rand.NewSource(10)), 1)
	m := NewModel(Config{Seed: 1, Relations: 1})
	grad := make([]float64, m.NumParams())

	m.Predict(&Sample{G: big})
	m.Gradient([]*Sample{{G: big, Target: 1}})(0, grad)
	if len(m.ws.free) != 0 || len(m.grads.free) != 0 {
		t.Fatalf("after a %d-node graph the model keeps %d serving and %d training workspaces, want none",
			n, len(m.ws.free), len(m.grads.free))
	}

	m.Predict(&Sample{G: small})
	m.Gradient([]*Sample{{G: small, Target: 1}})(0, grad)
	if len(m.ws.free) != 1 || len(m.grads.free) != 1 {
		t.Fatalf("after a small graph the model keeps %d serving and %d training workspaces, want 1 and 1",
			len(m.ws.free), len(m.grads.free))
	}
	if ws, gw := m.ws.free[0].retained(), m.grads.free[0].retained(); ws > maxRetained || gw > maxRetained {
		t.Errorf("kept workspaces retain %d and %d bytes, over the %d-byte cap", ws, gw, maxRetained)
	}

	// One slot of 2²⁰ floats (8 MiB); a member with every feature changed
	// rebuilds every row, and its log of them adds ≈ 8.7 MB.
	const mid = 3240
	base := chainGraph(mid)
	member := *base
	member.Feats = tensor.New(mid, 1)
	for i := range member.Feats.Data {
		member.Feats.Data[i] = 1
	}
	m = NewModel(Config{Seed: 1, Relations: 1})
	m.Predict(&Sample{G: base})
	if len(m.ws.free) != 1 {
		t.Fatalf("after a lone %d-node pass the model keeps %d workspaces, want 1", mid, len(m.ws.free))
	}
	m.PredictBatch([]*Sample{{G: base}, {G: &member}})
	if len(m.ws.free) != 0 {
		t.Errorf("after a %d-node family with an in-place member the model keeps %d workspaces (%d bytes), want none",
			mid, len(m.ws.free), m.ws.free[0].retained())
	}
}
