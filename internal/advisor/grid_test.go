package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/cast"
	"paragraph/internal/dataset"
	"paragraph/internal/gnn"
	"paragraph/internal/graph"
	"paragraph/internal/hw"
	"paragraph/internal/omp"
	"paragraph/internal/paragraph"
	"paragraph/internal/progen"
	"paragraph/internal/variants"
)

// gridPoint is one (teams, threads) configuration of one variant kind.
type gridPoint struct {
	kind           variants.Kind
	teams, threads int
}

// gridOf enumerates the points Advise evaluates for k on machine over the
// default search space, in its order: kind-major, then teams, then threads.
func gridOf(k apps.Kernel, machine hw.Machine) []gridPoint {
	return gridIn(k, machine, DefaultSearchSpace())
}

// gridIn is gridOf over space.
func gridIn(k apps.Kernel, machine hw.Machine, space SearchSpace) []gridPoint {
	var pts []gridPoint
	for _, kind := range variants.Kinds() {
		if kind.IsGPU() != machine.IsGPU || (kind.IsCollapse() && !k.Collapsible) {
			continue
		}
		if !kind.IsGPU() {
			for _, t := range space.CPUThreads {
				pts = append(pts, gridPoint{kind, 0, t})
			}
			continue
		}
		for _, g := range space.GPUTeams {
			for _, t := range space.GPUThreads {
				pts = append(pts, gridPoint{kind, g, t})
			}
		}
	}
	return pts
}

func firstBindings(k apps.Kernel) analysis.Env {
	b := analysis.Env{}
	for _, p := range k.Params {
		b[p.Name] = float64(p.Values[0])
	}
	return b
}

// adviseGrid returns the samples Advise hands the model for k on machine over
// the default space, in enumeration order.
func adviseGrid(t *testing.T, m *gnn.Model, k apps.Kernel, machine hw.Machine, bindings analysis.Env) []*gnn.Sample {
	t.Helper()
	rec := &ctxBatch{m: m}
	if _, err := New(rec, testPrep(), machine).Advise(k, bindings, DefaultSearchSpace()); err != nil {
		t.Fatal(err)
	}
	return rec.last
}

// TestGridBatchBitIdenticalToPerSample is the engine's family contract on
// real grids: for every suite kernel on a CPU and a GPU machine,
// PredictBatch returns, at every index, the bits a lone Predict of that
// point's own per-point encoding returns — over the grid encoded point by
// point (EncodeInstance), and over the grid Advise hands the model, whose
// points share one topology per kind by pointer.
func TestGridBatchBitIdenticalToPerSample(t *testing.T) {
	m := gnn.NewModel(gnn.Config{Seed: 2, Hidden: 12, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
	for _, machine := range []hw.Machine{hw.Power9(), hw.V100()} {
		a := New(m, testPrep(), machine)
		for _, k := range apps.Kernels() {
			var grid []*gnn.Sample
			for _, p := range gridOf(k, machine) {
				src, err := variants.Generate(k, p.kind, p.teams, p.threads)
				if err != nil {
					t.Fatal(err)
				}
				s, err := a.EncodeInstance(variants.Instance{Kernel: k, Kind: p.kind, Teams: p.teams, Threads: p.threads, Bindings: firstBindings(k), Source: src})
				if err != nil {
					t.Fatal(err)
				}
				grid = append(grid, s)
			}
			shared := adviseGrid(t, m, k, machine, firstBindings(k))
			if len(shared) != len(grid) {
				t.Fatalf("%s on %s: Advise hands the model %d samples for a grid of %d", k.Name, machine.Name, len(shared), len(grid))
			}
			got, gotShared := m.PredictBatch(grid), m.PredictBatch(shared)
			for i, s := range grid {
				want := math.Float64bits(m.Predict(s))
				if math.Float64bits(got[i]) != want {
					t.Fatalf("%s on %s: PredictBatch[%d] = %v, Predict = %v", k.Name, machine.Name, i, got[i], m.Predict(s))
				}
				if math.Float64bits(gotShared[i]) != want || shared[i].Name != s.Name {
					t.Fatalf("%s on %s: PredictBatch over Advise's grid gives %v for point %d (%s), a lone Predict of %s encoded on its own %v",
						k.Name, machine.Name, gotShared[i], i, shared[i].Name, s.Name, m.Predict(s))
				}
			}
		}
	}
}

// TestAdviseGridSharesStructure: the sharing is real, not equal copies.
// Within one kind of the grid Advise hands the model, node codes and every
// relation's edge lists are the same slices, and the Child weights the same
// column at every team count of one thread count; across kinds nothing is
// shared; every point has a feature column and a WScale header of its own.
func TestAdviseGridSharesStructure(t *testing.T) {
	m := gnn.NewModel(gnn.Config{Seed: 2, Hidden: 8, Layers: 1, Relations: int(paragraph.NumEdgeTypes)})
	child := int(paragraph.Child)
	for _, machine := range []hw.Machine{hw.Power9(), hw.V100()} {
		for _, k := range apps.Kernels() {
			pts := gridOf(k, machine)
			grid := adviseGrid(t, m, k, machine, firstBindings(k))
			heads := map[variants.Kind]*gnn.Graph{}
			weights := map[gridPoint]*gnn.Graph{} // by kind and thread count
			feats := map[*float64]bool{}
			for i, p := range pts {
				g := grid[i].G
				name := fmt.Sprintf("%s/%s g%d t%d on %s", k.Name, p.kind, p.teams, p.threads, machine.Name)
				if feats[&g.Feats.Data[0]] {
					t.Fatalf("%s: feature column shared with another point", name)
				}
				feats[&g.Feats.Data[0]] = true
				head, seen := heads[p.kind]
				if !seen {
					for other, h := range heads {
						if &h.Kinds[0] == &g.Kinds[0] {
							t.Fatalf("%s: shares node codes with kind %s", name, other)
						}
					}
					heads[p.kind] = g
					head = g
				}
				if &g.Kinds[0] != &head.Kinds[0] || &g.SubKinds[0] != &head.SubKinds[0] {
					t.Fatalf("%s: node codes are not the kind's shared slices", name)
				}
				for r := range g.Rels {
					if len(g.Rels[r].Src) > 0 && (&g.Rels[r].Src[0] != &head.Rels[r].Src[0] || &g.Rels[r].Dst[0] != &head.Rels[r].Dst[0]) {
						t.Fatalf("%s: %v edge lists are not the kind's shared slices", name, paragraph.EdgeType(r))
					}
					if r != child && len(g.Rels[r].LogW) > 0 && &g.Rels[r].LogW[0] != &head.Rels[r].LogW[0] {
						t.Fatalf("%s: %v zero weight column is not the kind's shared one", name, paragraph.EdgeType(r))
					}
				}
				wkey := gridPoint{kind: p.kind, threads: p.threads}
				if sib, seen := weights[wkey]; !seen {
					weights[wkey] = g
				} else if &g.Rels[child].LogW[0] != &sib.Rels[child].LogW[0] {
					t.Fatalf("%s: Child weights are not the column the first team count got at this thread count", name)
				}
			}
		}
	}
}

// builtPoint is one grid point's ParaGraph and its encoding.
type builtPoint struct {
	teams, threads int
	g              *graph.Graph
	eg             *gnn.Graph
}

func buildPoint(t *testing.T, src string, teams, threads int, bindings analysis.Env) builtPoint {
	t.Helper()
	g, err := paragraph.BuildKernel(src, paragraph.Options{Level: paragraph.LevelParaGraph, Threads: threads, Bindings: bindings})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		t.Fatal(err)
	}
	return builtPoint{teams, threads, g, eg}
}

// configLiteral reports whether node is an IntegerLiteral child of a
// num_teams, thread_limit or num_threads clause — the only place a grid
// point's configuration may reach a node feature.
func configLiteral(g *graph.Graph, node int) bool {
	if g.Nodes[node].Kind != int(cast.KindIntegerLiteral) {
		return false
	}
	for _, e := range g.Edges {
		if e.Type != int(paragraph.Child) || e.Dst != node {
			continue
		}
		p := g.Nodes[e.Src]
		if p.Kind != int(cast.KindOMPClause) {
			return false
		}
		switch omp.ClauseKind(p.SubKind) {
		case omp.ClauseNumTeams, omp.ClauseThreadLimit, omp.ClauseNumThreads:
			return true
		}
	}
	return false
}

// dirtyAfter runs the engine's propagation recurrence with no weight change:
// D₀ = rows, D_{ℓ+1} = D_ℓ ∪ out-neighbours(D_ℓ), and returns |D_layers|.
func dirtyAfter(eg *gnn.Graph, rows []int, layers int) int {
	dirty := make([]bool, eg.NumNodes)
	for _, r := range rows {
		dirty[r] = true
	}
	for l := 0; l < layers; l++ {
		next := append([]bool(nil), dirty...)
		for _, rel := range eg.Rels {
			for e, s := range rel.Src {
				if dirty[s] {
					next[rel.Dst[e]] = true
				}
			}
		}
		dirty = next
	}
	n := 0
	for _, d := range dirty {
		if d {
			n++
		}
	}
	return n
}

// checkFamily asserts the structural fact on the points of one (kernel,
// kind, bindings): one topology, weights a function of threads alone,
// configuration visible only in clause literals. maxTeamsDirty > 0 also
// bounds what a teams-only change dirties after three layers.
func checkFamily(t *testing.T, name string, pts []builtPoint, gpu bool, maxTeamsDirty int) {
	t.Helper()
	const consequence = "gnn's family evaluation groups a grid by equal topology and recomputes only rows that differ; " +
		"if grid points stop sharing structure the families silently shrink to singletons (or every row goes dirty) and " +
		"the advise_cold gain of PR 19 — and ROADMAP item 2's parse-once premise — evaporates"
	base := pts[0]
	byThreads := map[int]builtPoint{}
	for _, p := range pts {
		if p.eg.NumNodes != base.eg.NumNodes || !reflect.DeepEqual(p.eg.Kinds, base.eg.Kinds) || !reflect.DeepEqual(p.eg.SubKinds, base.eg.SubKinds) {
			t.Fatalf("%s: teams=%d threads=%d encodes different node codes than teams=%d threads=%d: %s",
				name, p.teams, p.threads, base.teams, base.threads, consequence)
		}
		for r := range p.eg.Rels {
			if !reflect.DeepEqual(p.eg.Rels[r].Src, base.eg.Rels[r].Src) || !reflect.DeepEqual(p.eg.Rels[r].Dst, base.eg.Rels[r].Dst) {
				t.Fatalf("%s: teams=%d threads=%d has different %v edges than the first point: %s",
					name, p.teams, p.threads, paragraph.EdgeType(r), consequence)
			}
		}
		first, seen := byThreads[p.threads]
		if !seen {
			byThreads[p.threads] = p
			first = p
		}
		for r := range p.eg.Rels {
			if !reflect.DeepEqual(p.eg.Rels[r].LogW, first.eg.Rels[r].LogW) {
				t.Fatalf("%s: edge weights differ between teams=%d and teams=%d at threads=%d — weights must depend on (threads, bindings) only: %s",
					name, p.teams, first.teams, p.threads, consequence)
			}
		}
		var rows []int
		for i, f := range p.eg.Feats.Data {
			if f != base.eg.Feats.Data[i] {
				rows = append(rows, i)
				if !configLiteral(p.g, i) {
					t.Fatalf("%s: teams=%d threads=%d differs from the first point in the feature of node %d (%s), not a num_teams/thread_limit/num_threads literal: %s",
						name, p.teams, p.threads, i, p.g.Nodes[i].Label, consequence)
				}
			}
		}
		want := 0
		if p.teams != base.teams {
			want++
		}
		if p.threads != base.threads {
			want++
			if gpu { // thread_limit and num_threads both carry it
				want++
			}
		}
		if len(rows) > want {
			t.Fatalf("%s: teams=%d threads=%d differs from teams=%d threads=%d in %d feature rows, want at most %d: %s",
				name, p.teams, p.threads, base.teams, base.threads, len(rows), want, consequence)
		}
		if maxTeamsDirty > 0 && p.threads == base.threads && p.teams != base.teams {
			if n := dirtyAfter(p.eg, rows, 3); n > maxTeamsDirty {
				t.Fatalf("%s: a teams-only change dirties %d of %d rows after three layers, want at most %d: %s",
					name, n, p.eg.NumNodes, maxTeamsDirty, consequence)
			}
		}
	}
}

// TestGridPointsShareTopology pins the structural fact family evaluation
// (and ROADMAP item 2) stands on, for every suite kernel × variant kind ×
// default search space on a CPU and a GPU machine, at the smallest and the
// largest bindings.
func TestGridPointsShareTopology(t *testing.T) {
	for _, machine := range []hw.Machine{hw.Power9(), hw.V100()} {
		for _, k := range apps.Kernels() {
			lastBindings := analysis.Env{}
			for _, p := range k.Params {
				lastBindings[p.Name] = float64(p.Values[len(p.Values)-1])
			}
			for _, bindings := range []analysis.Env{firstBindings(k), lastBindings} {
				families := map[variants.Kind][]builtPoint{}
				var kinds []variants.Kind
				for _, p := range gridOf(k, machine) {
					src, err := variants.Generate(k, p.kind, p.teams, p.threads)
					if err != nil {
						t.Fatal(err)
					}
					if _, ok := families[p.kind]; !ok {
						kinds = append(kinds, p.kind)
					}
					families[p.kind] = append(families[p.kind], buildPoint(t, src, p.teams, p.threads, bindings))
				}
				for _, kind := range kinds {
					checkFamily(t, fmt.Sprintf("%s/%s on %s %s", k.Name, kind, machine.Name, BindingsKey(bindings)),
						families[kind], machine.IsGPU, 4)
				}
			}
		}
	}
}

// TestGeneratedKernelGridsShareTopology repeats the structural check on
// progen kernels, their parallel loop given the directive a CPU or a GPU
// variant would carry.
func TestGeneratedKernelGridsShareTopology(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	space := DefaultSearchSpace()
	for i := 0; i < 30; i++ {
		src := progen.Generate(rng, progen.Config{WithOMP: true})
		if !strings.Contains(src, "#pragma omp parallel for") {
			continue
		}
		bindings := analysis.Env{"n": float64(int(64) << rng.Intn(8)), "m": float64(int(16) << rng.Intn(6))}
		var cpu, gpu []builtPoint
		for _, th := range space.CPUThreads {
			dir := fmt.Sprintf("#pragma omp parallel for num_threads(%d)", th)
			cpu = append(cpu, buildPoint(t, strings.Replace(src, "#pragma omp parallel for", dir, 1), 0, th, bindings))
		}
		for _, g := range space.GPUTeams {
			for _, th := range space.GPUThreads {
				dir := fmt.Sprintf("#pragma omp target teams distribute parallel for num_teams(%d) thread_limit(%d) num_threads(%d)", g, th, th)
				gpu = append(gpu, buildPoint(t, strings.Replace(src, "#pragma omp parallel for", dir, 1), g, th, bindings))
			}
		}
		checkFamily(t, fmt.Sprintf("progen kernel %d (cpu)", i), cpu, false, 0)
		checkFamily(t, fmt.Sprintf("progen kernel %d (gpu)", i), gpu, true, 0)
	}
}

// TestServedGraphMatchesTrainingGraph is the train/serve parity check: for
// every suite kernel × variant kind at one grid point, the sample
// EncodeInstance hands the model at serving time is the sample
// dataset.Prepare built for the same instance at training time — node
// codes, every relation's edges and weights, node features, WScale and the
// scaled (teams, threads) pair. Both go through dataset's Encoder and
// Prepared.Sample; this pins that neither adds an option of its own on the
// way. (registry's TestSampleIsTheSameWhereverItIsBuilt adds a CPU machine
// and a served checkpoint's scalers.)
func TestServedGraphMatchesTrainingGraph(t *testing.T) {
	var points []dataset.Point
	for _, k := range apps.Kernels() {
		bindings := analysis.Env{}
		for _, p := range k.Params {
			bindings[p.Name] = float64(p.Values[0])
		}
		for _, kind := range variants.Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			teams, threads := 0, 8
			if kind.IsGPU() {
				teams, threads = 64, 128
			}
			src, err := variants.Generate(k, kind, teams, threads)
			if err != nil {
				t.Fatal(err)
			}
			points = append(points, dataset.Point{
				Instance: variants.Instance{
					Kernel: k, Kind: kind, Teams: teams, Threads: threads,
					Bindings: bindings, Source: src,
				},
				RuntimeUS: float64(100 + len(points)),
			})
		}
	}
	prep, err := dataset.Prepare(points, dataset.PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	trained := map[string]*gnn.Sample{}
	for _, s := range append(append([]*gnn.Sample{}, prep.Train...), prep.Val...) {
		trained[s.Name] = s
	}
	if len(trained) != len(points) {
		t.Fatalf("%d distinct training samples for %d points", len(trained), len(points))
	}
	a := New(weightOracle{}, prep, hw.V100())
	for _, pt := range points {
		want := trained[pt.Instance.Name()]
		got, err := a.EncodeInstance(pt.Instance)
		if err != nil {
			t.Fatal(err)
		}
		name := pt.Instance.Name()
		if got.G.NumNodes != want.G.NumNodes || !reflect.DeepEqual(got.G.Kinds, want.G.Kinds) || !reflect.DeepEqual(got.G.SubKinds, want.G.SubKinds) {
			t.Errorf("%s: node codes differ between serving and training", name)
		}
		if !reflect.DeepEqual(got.G.Feats, want.G.Feats) {
			t.Errorf("%s: node features differ between serving and training", name)
		}
		if !reflect.DeepEqual(got.G.Rels, want.G.Rels) {
			t.Errorf("%s: relation edges or weights differ between serving and training", name)
		}
		if got.G.WScale != want.G.WScale || got.Feats != want.Feats {
			t.Errorf("%s: scaling differs: serving WScale %v feats %v, training WScale %v feats %v",
				name, got.G.WScale, got.Feats, want.G.WScale, want.Feats)
		}
	}
}

// TestColdAdviseAllocations pins the cold path's garbage where tier-1 can
// see it: one cold default-space V100 Advise, averaged over the suite at the
// bench/ checkpoint's shape (Hidden 24, Layers 3), allocates at most 1 140
// times and 137 kB. The warm-up sweep also fills the advisor's encoder memo,
// so the rounds measure a cold request on a kind parsed before — what every
// advise_cold request after the first per (kernel, kind) is — at 876
// allocations and 105.7 kB, the limits being those figures × 1.3. The
// bound holds at any GOMAXPROCS with the collector on: an advise runs on one
// goroutine and one engine workspace, which the model keeps on its own free
// list, so a collection between the warm-up and the rounds costs no
// regrowth. History: parsing every grid point
// made it 16 484 allocations and 3.16 MB; one parse per variant kind and
// request, 2 174 and 0.38 MB (limits 5 000 and 1.2 MB).
func TestColdAdviseAllocations(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, set := range bi.Settings {
			if set.Key == "-race" && set.Value == "true" {
				t.Skip("race instrumentation allocates; counts are only meaningful unraced")
			}
		}
	}
	m := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 24, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
	a := New(m, testPrep(), hw.V100())
	kernels, space := apps.Kernels(), DefaultSearchSpace()
	sweep := func(offset int) {
		for _, k := range kernels {
			bindings := analysis.Env{}
			for _, p := range k.Params {
				bindings[p.Name] = float64(p.Values[0] + offset)
			}
			if _, err := a.Advise(k, bindings, space); err != nil {
				t.Fatal(err)
			}
		}
	}
	sweep(0) // size the engine's workspace and fill the encoder memo
	runtime.GC()
	const rounds = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 1; r <= rounds; r++ {
		sweep(r)
	}
	runtime.ReadMemStats(&after)
	n := float64(rounds * len(kernels))
	allocs, bytes := float64(after.Mallocs-before.Mallocs)/n, float64(after.TotalAlloc-before.TotalAlloc)/n
	if allocs > 1140 || bytes > 137e3 {
		t.Errorf("a cold advise allocates %.0f times and %.0f bytes, want at most 1140 and 137e3", allocs, bytes)
	}
}
