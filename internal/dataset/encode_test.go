package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/cparse"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/progen"
	"paragraph/internal/variants"
)

var allLevels = []paragraph.Level{paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph}

// freshEncode is the oracle the split front end is held to: the per-point
// pipeline of public functions — parse, Build, Encode — with nothing shared
// between calls.
func freshEncode(t *testing.T, src string, level paragraph.Level, threads int, bindings analysis.Env) *gnn.Graph {
	t.Helper()
	fn, err := cparse.ParseFunction(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	g, err := paragraph.Build(fn, paragraph.Options{Level: level, Threads: threads, Bindings: bindings})
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		t.Fatal(err)
	}
	return eg
}

// firstDiff returns the first index at which a and b differ in length or
// bits, or -1.
func firstDiff(a, b []float64) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// requireSameGraph fails unless got is want node for node, edge for edge in
// order, and bit for bit in features and weights.
func requireSameGraph(t *testing.T, name string, got, want *gnn.Graph) {
	t.Helper()
	if got.NumNodes != want.NumNodes || !slices.Equal(got.Kinds, want.Kinds) || !slices.Equal(got.SubKinds, want.SubKinds) {
		t.Fatalf("%s: node codes differ from a fresh parse → Build → Encode", name)
	}
	if len(got.Feats) != len(want.Feats) {
		t.Fatalf("%s: %d features, want %d", name, len(got.Feats), len(want.Feats))
	}
	if i := firstDiff(got.Feats, want.Feats); i >= 0 {
		t.Fatalf("%s: feature of node %d is %v, a fresh parse → Build → Encode gives %v", name, i, got.Feats[i], want.Feats[i])
	}
	if got.WScale != want.WScale || len(got.Rels) != len(want.Rels) {
		t.Fatalf("%s: WScale %v and %d relations, want %v and %d", name, got.WScale, len(got.Rels), want.WScale, len(want.Rels))
	}
	for r := range want.Rels {
		if !slices.Equal(got.Rels[r].Src, want.Rels[r].Src) || !slices.Equal(got.Rels[r].Dst, want.Rels[r].Dst) {
			t.Fatalf("%s: %v edges differ from a fresh parse → Build → Encode", name, paragraph.EdgeType(r))
		}
	}
	if i := firstDiff(got.LogW, want.LogW); i >= 0 {
		t.Fatalf("%s: Child weights differ from a fresh parse → Build → Encode at edge %d of %d (want %d)",
			name, i, len(got.LogW), len(want.LogW))
	}
}

// sweepBindings returns the smallest and the largest bindings of k's sweep.
func sweepBindings(k apps.Kernel) []analysis.Env {
	first, last := analysis.Env{}, analysis.Env{}
	for _, p := range k.Params {
		first[p.Name] = float64(p.Values[0])
		last[p.Name] = float64(p.Values[len(p.Values)-1])
	}
	return []analysis.Env{first, last}
}

// TestEncoderMatchesFreshBuildOnSuiteGrids: for every suite kernel × variant
// kind × default grid point × first and last bindings × level, the graph off
// the kind's one Encoder is the graph a fresh parse of that point's own
// source builds and encodes. Within a kind the structure is shared by
// pointer (the plan with it: gnn's TestTopologyGraphsShareStructure), and a
// thread count's weight column by every team count.
func TestEncoderMatchesFreshBuildOnSuiteGrids(t *testing.T) {
	sweep := variants.DefaultSweep()
	for _, k := range apps.Kernels() {
		for _, kind := range variants.Kinds() {
			if kind.IsCollapse() && !k.Collapsible {
				continue
			}
			teams, threads := []int{0}, sweep.CPUThreads
			if kind.IsGPU() {
				teams, threads = sweep.GPUTeams, sweep.GPUThreads
			}
			for _, level := range allLevels {
				first, err := variants.Generate(k, kind, teams[0], threads[0])
				if err != nil {
					t.Fatal(err)
				}
				enc, err := NewEncoder(first, level, k.PragmaOffset())
				if err != nil {
					t.Fatal(err)
				}
				for _, bindings := range sweepBindings(k) {
					grid := enc.Bind(bindings)
					var head *gnn.Graph
					byThreads := map[int]*gnn.Graph{}
					for _, g := range teams {
						for _, th := range threads {
							name := fmt.Sprintf("%s/%s g%d t%d %s at %v", k.Name, kind, g, th, bindings.Key(), level)
							src, err := variants.Generate(k, kind, g, th)
							if err != nil {
								t.Fatal(err)
							}
							got, err := grid.Graph(g, th)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							requireSameGraph(t, name, got, freshEncode(t, src, level, th, bindings))

							if head == nil {
								head = got
							}
							if got.Topology != head.Topology {
								t.Fatalf("%s: node codes and edge lists are a copy, not the kind's shared topology", name)
							}
							sib, seen := byThreads[th]
							if !seen {
								byThreads[th] = got
							} else if &got.LogW[0] != &sib.LogW[0] {
								t.Fatalf("%s: Child weights are a copy of the ones teams=%d got at this thread count, not the same column", name, teams[0])
							}
							if &got.Feats[0] == &head.Feats[0] && got != head {
								t.Fatalf("%s: feature column shared between grid points", name)
							}
						}
					}
				}
			}
		}
	}
}

// equivTrials is the property-test budget; CI's equivalence step raises it
// through PARAGRAPH_EQUIV_TRIALS, as it does the engine's.
func equivTrials(def int) int {
	if n, err := strconv.Atoi(os.Getenv("PARAGRAPH_EQUIV_TRIALS")); err == nil && n > 0 {
		return n
	}
	return def
}

// TestEncoderMatchesFreshBuildOnGeneratedKernels repeats the oracle check on
// progen kernels carrying the directive a CPU or a GPU variant would, at
// random bindings and random team and thread counts — one thread included —
// with a second, fixed directive in some of them that no grid point may
// touch.
func TestEncoderMatchesFreshBuildOnGeneratedKernels(t *testing.T) {
	const marker = "#pragma omp parallel for"
	rng := rand.New(rand.NewSource(22))
	directives := []func(g, th int) string{
		func(_, th int) string { return fmt.Sprintf("%s num_threads(%d)", marker, th) },
		func(g, th int) string {
			return fmt.Sprintf("#pragma omp target teams distribute parallel for num_teams(%d) thread_limit(%d) num_threads(%d)", g, th, th)
		},
	}
	counts := []int{1, 2, 3, 4, 8, 16, 22, 24, 64, 100, 128, 256, 1024}
	for trial, done := 0, 0; done < equivTrials(200); trial++ {
		src := progen.Generate(rng, progen.Config{WithOMP: true})
		if !strings.Contains(src, marker) {
			continue
		}
		done++
		if trial%3 == 0 {
			// A directive of the template's own, spelling the swept clauses
			// with literals of its own, ahead of the swept one.
			src = strings.Replace(src, "{\n", "{\n#pragma omp parallel for num_threads(4)\n    for (int z = 0; z < 2; z++) { a[z] = 0.0; }\n", 1)
		}
		at := strings.LastIndex(src, marker)
		spell := func(dir string) string { return src[:at] + dir + src[at+len(marker):] }
		for _, directive := range directives {
			for _, level := range allLevels {
				enc, err := NewEncoder(spell(directive(counts[rng.Intn(len(counts))], counts[rng.Intn(len(counts))])), level, at)
				if err != nil {
					t.Fatalf("%v\n%s", err, src)
				}
				for b := 0; b < 2; b++ {
					bindings := analysis.Env{"n": float64(int(1) << rng.Intn(14)), "m": float64(rng.Intn(5000))}
					grid := enc.Bind(bindings)
					for p := 0; p < 3; p++ {
						g, th := counts[rng.Intn(len(counts))], counts[rng.Intn(len(counts))]
						got, err := grid.Graph(g, th)
						if err != nil {
							t.Fatal(err)
						}
						point := spell(directive(g, th))
						requireSameGraph(t, fmt.Sprintf("progen kernel %d g%d t%d %s at %v\n%s", trial, g, th, bindings.Key(), level, point),
							got, freshEncode(t, point, level, th, bindings))
					}
				}
			}
		}
	}
}

// TestEncodeSourceIsAGridOfOne: EncodeSource is the Encoder path with no
// directive to rewrite — the source's own literals, weights at max(threads,
// 1) — for sources Generate did not write too.
func TestEncodeSourceIsAGridOfOne(t *testing.T) {
	src := `void f(double *a, int n) {
#pragma omp target teams distribute parallel for num_teams(8) thread_limit(32) num_threads(32)
    for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
}`
	bindings := analysis.Env{"n": 4096}
	for _, level := range allLevels {
		for _, threads := range []int{1, 2, 32, 100} {
			got, err := EncodeSource(src, level, threads, bindings)
			if err != nil {
				t.Fatal(err)
			}
			requireSameGraph(t, fmt.Sprintf("threads=%d at %v", threads, level), got, freshEncode(t, src, level, threads, bindings))
		}
		// A count below one still divides by one: the front end never reads
		// the directive's literals for a divisor.
		got, err := EncodeSource(src, level, 0, bindings)
		if err != nil {
			t.Fatal(err)
		}
		requireSameGraph(t, fmt.Sprintf("threads=0 at %v", level), got, freshEncode(t, src, level, 1, bindings))
	}
}

// TestMoreThreadsNeverWeighMore: for every suite kernel at every GPU kind the
// heaviest Child weight is non-increasing over threads 1, 2, 4, …, 256. One
// thread per team used to read as "unset" and divide by the directive's team
// count instead, ranking a one-thread team 32× cheaper than a two-thread one.
func TestMoreThreadsNeverWeighMore(t *testing.T) {
	for _, k := range apps.Kernels() {
		for _, kind := range variants.Kinds() {
			if !kind.IsGPU() || (kind.IsCollapse() && !k.Collapsible) {
				continue
			}
			prev := math.Inf(1)
			for threads := 1; threads <= 256; threads *= 2 {
				src, err := variants.Generate(k, kind, 64, threads)
				if err != nil {
					t.Fatal(err)
				}
				eg, err := EncodeSource(src, paragraph.LevelParaGraph, threads, sweepBindings(k)[1])
				if err != nil {
					t.Fatal(err)
				}
				if w := eg.MaxLogWeight(); w > prev {
					t.Errorf("%s/%s: heaviest log-weight rises from %.2f to %.2f at threads=%d", k.Name, kind, prev, w, threads)
				} else {
					prev = w
				}
			}
		}
	}
}

// TestEncoderRefusesWhatBuildRefuses: a weight that is not a number is an
// error on both paths, not a NaN handed to the model.
func TestEncoderRefusesWhatBuildRefuses(t *testing.T) {
	src := "void f(double *a, int n) { for (int i = 0; i < n; i++) { a[i] = 0.0; } }"
	bindings := analysis.Env{"n": math.NaN()}
	fn, err := cparse.ParseFunction(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := paragraph.Build(fn, paragraph.Options{Level: paragraph.LevelParaGraph, Threads: 4, Bindings: bindings}); err == nil {
		t.Fatal("Build accepted a NaN trip count")
	}
	if _, err := EncodeSource(src, paragraph.LevelParaGraph, 4, bindings); err == nil {
		t.Error("EncodeSource accepted a NaN trip count")
	}
}

// TestPrepareMatchesPerPointEncoding: every sample Prepare builds is the
// sample the per-point pipeline builds from that point's own Source, bit for
// bit, at every level and any GOMAXPROCS — for a real sweep, where a
// (kernel, kind) family shares one parse, and for points whose Source is not
// what variants.Generate writes for their fields, which must be encoded as
// themselves and not off a family's topology.
func TestPrepareMatchesPerPointEncoding(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sweep = variants.SweepConfig{CPUThreads: []int{1, 8}, GPUTeams: []int{16, 64}, GPUThreads: []int{64, 256}, MaxSizesPerKernel: 2}
	cfg.MaxPerPlatform = 150
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, m := range []hw.Machine{hw.Power9(), hw.V100()} {
		p, err := Collect(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		points := p.Points
		// Doctored copies of the first three points. Each still names the
		// template, kind and counts of a family that exists.
		for i, doctor := range []func(*variants.Instance){
			func(in *variants.Instance) {
				in.Source = strings.Replace(in.Source, "{\n", "{\n    int unused = 7;\n", 1)
			},
			func(in *variants.Instance) { in.Threads *= 2 }, // the field no longer says what the source spells
			func(in *variants.Instance) { in.Source = strings.Replace(in.Source, "#pragma omp", "#pragma  omp", 1) },
		} {
			pt := points[i]
			pt.Instance.Kernel.Name += "_doctored"
			doctor(&pt.Instance)
			points = append(points, pt)
		}
		for _, level := range allLevels {
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				prep, err := Prepare(points, PrepConfig{Level: level, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				built := map[string]*gnn.Sample{}
				for _, s := range append(append([]*gnn.Sample{}, prep.Train...), prep.Val...) {
					built[s.Name] = s
				}
				if len(built) != len(points) {
					t.Fatalf("%d distinct samples for %d points", len(built), len(points))
				}
				for _, pt := range points {
					in := pt.Instance
					want := freshEncode(t, in.Source, level, in.Threads, in.Bindings)
					want.WScale = prep.WScale
					requireSameGraph(t, fmt.Sprintf("%s on %s at %v, GOMAXPROCS %d", in.Name(), m.Name, level, procs), built[in.Name()].G, want)
				}
			}
		}
	}
}

// TestGroupByTopology: families are one template × kind × clause pattern,
// in order of first appearance, and a point joins one only on the evidence
// of its Source.
func TestGroupByTopology(t *testing.T) {
	k, _ := apps.ByName("matmul")
	point := func(k apps.Kernel, kind variants.Kind, teams, threads int) Point {
		src, err := variants.Generate(k, kind, teams, threads)
		if err != nil {
			t.Fatal(err)
		}
		return Point{Instance: variants.Instance{Kernel: k, Kind: kind, Teams: teams, Threads: threads, Source: src}}
	}
	other := k
	other.Arrays = append([]apps.Array{{Name: "extra", SizeExpr: "n"}}, k.Arrays...) // same template, other map clauses
	forged := point(k, variants.GPU, 64, 128)
	forged.Instance.Teams = 32
	points := []Point{
		point(k, variants.GPU, 16, 64),      // 0: family A
		point(k, variants.GPUMem, 16, 64),   // 1: family B
		point(k, variants.GPU, 256, 128),    // 2: A
		point(k, variants.GPU, 0, 128),      // 3: no num_teams clause: family C
		forged,                              // 4: alone
		point(other, variants.GPUMem, 4, 8), // 5: B's key, not B's kernel: alone
		point(k, variants.GPUMem, 64, 256),  // 6: B
		point(k, variants.CPU, 0, 8),        // 7: family D
	}
	var got [][]int
	for _, f := range groupByTopology(points) {
		got = append(got, f.points)
		if alone := f.directive < 0; alone != (len(f.points) == 1 && (f.points[0] == 4 || f.points[0] == 5)) {
			t.Errorf("family %v has directive offset %d", f.points, f.directive)
		}
	}
	if want := "[[0 2] [1 6] [3] [4] [5] [7]]"; fmt.Sprint(got) != want {
		t.Errorf("families = %v, want %s", got, want)
	}
}

// TestSharedTopologyConcurrentUse: graphs off one Encoder are read from many
// goroutines at once — training workers, engine workers, requests sharing a
// model — including the first use that fills their shared plan cache. Nothing
// writes what they share; run under -race.
func TestSharedTopologyConcurrentUse(t *testing.T) {
	k, _ := apps.ByName("matmul")
	src, err := variants.Generate(k, variants.GPUCollapseMem, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(src, paragraph.LevelParaGraph, k.PragmaOffset())
	if err != nil {
		t.Fatal(err)
	}
	var samples []*gnn.Sample
	for _, bindings := range sweepBindings(k) {
		grid := enc.Bind(bindings)
		for _, g := range []int{16, 64} {
			for _, th := range []int{64, 128} {
				eg, err := grid.Graph(g, th)
				if err != nil {
					t.Fatal(err)
				}
				eg.WScale = 12
				samples = append(samples, &gnn.Sample{G: eg, Feats: [2]float64{float64(g) / 256, float64(th) / 256}})
			}
		}
	}
	m := gnn.NewModel(gnn.Config{Seed: 3, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	want := make([]float64, len(samples))
	var wg sync.WaitGroup
	got := make([][]float64, 6)
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w%2 == 0 {
				got[w] = m.PredictBatch(samples)
				return
			}
			got[w] = make([]float64, len(samples))
			for i, s := range samples {
				got[w][i] = m.Predict(s)
			}
		}()
	}
	wg.Wait()
	for i, s := range samples {
		want[i] = m.Predict(s)
	}
	for w := range got {
		if firstDiff(got[w], want) >= 0 {
			t.Fatalf("goroutine %d predicted %v, alone %v", w, got[w], want)
		}
	}
}
