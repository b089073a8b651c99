package advisor

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
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
	space := DefaultSearchSpace()
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

// TestGridBatchBitIdenticalToPerSample is the engine's family contract on
// real grids: for every suite kernel on a CPU and a GPU machine, in both
// inference widths, PredictBatch over the whole encoded grid returns, at
// every index, the bits a lone Predict of that point returns.
func TestGridBatchBitIdenticalToPerSample(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		m := gnn.NewModel(gnn.Config{Seed: 2, Hidden: 12, Layers: 3, Relations: int(paragraph.NumEdgeTypes)})
		m.SetFloat32Inference(f32)
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
				got := m.PredictBatch(grid)
				for i, s := range grid {
					if want := m.Predict(s); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s on %s f32=%v: PredictBatch[%d] = %v, Predict = %v", k.Name, machine.Name, f32, i, got[i], want)
					}
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
// scaled (teams, threads) pair. Both go through dataset.EncodeSource; this
// pins that neither adds an option of its own on the way.
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
