package advisor

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"paragraph/internal/analysis"
	"paragraph/internal/apps"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/paragraph"
	"paragraph/internal/variants"
)

// memoSize counts the advisor's memoized Encoders.
func memoSize(a *Advisor) int {
	n := 0
	a.encoders.Range(func(any, any) bool { n++; return true })
	return n
}

// kindsOf lists the variant kinds Advise ranks for k on machine.
func kindsOf(k apps.Kernel, machine hw.Machine) []variants.Kind {
	var out []variants.Kind
	for _, kind := range variants.Kinds() {
		if ranks(kind, k, machine) {
			out = append(out, kind)
		}
	}
	return out
}

// reversed is space with every list in reverse order, so its first point —
// the one a cold kind is parsed from — is another (teams, threads).
func reversed(space SearchSpace) SearchSpace {
	rev := func(xs []int) []int {
		ys := slices.Clone(xs)
		slices.Reverse(ys)
		return ys
	}
	return SearchSpace{CPUThreads: rev(space.CPUThreads), GPUTeams: rev(space.GPUTeams), GPUThreads: rev(space.GPUThreads)}
}

// TestEncoderMemoMatchesFreshAdvisor: for every suite kernel on a CPU and a
// GPU machine, one advisor's answers are a fresh advisor's bit for bit — on
// its first advise (a miss), its second with new bindings (a hit) and one
// over a space whose first (teams, threads) differs — and the hits really
// reuse the first request's topology.
func TestEncoderMemoMatchesFreshAdvisor(t *testing.T) {
	m := gnn.NewModel(gnn.Config{Seed: 3, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	def := DefaultSearchSpace()
	for _, machine := range []hw.Machine{hw.Power9(), hw.V100()} {
		rec := &ctxBatch{m: m}
		a := New(rec, testPrep(), machine)
		for _, k := range apps.Kernels() {
			next := analysis.Env{}
			for _, p := range k.Params {
				next[p.Name] = float64(p.Values[len(p.Values)-1] + 3)
			}
			var kinds []*int // each kind's node codes, from its first point
			for i, req := range []struct {
				bindings analysis.Env
				space    SearchSpace
			}{
				{firstBindings(k), def},
				{next, def},
				{next, reversed(def)},
			} {
				name := fmt.Sprintf("%s on %s, request %d", k.Name, machine.Name, i+1)
				got, err := a.Advise(k, req.bindings, req.space)
				if err != nil {
					t.Fatal(err)
				}
				var shared []*int
				perKind := len(rec.last) / len(kindsOf(k, machine))
				for lo := 0; lo < len(rec.last); lo += perKind {
					shared = append(shared, &rec.last[lo].G.Kinds[0])
				}
				want, err := New(&ctxBatch{m: m}, testPrep(), machine).Advise(k, req.bindings, req.space)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRanking(t, name, got, want)
				if kinds == nil {
					kinds = shared
				} else if !slices.Equal(shared, kinds) {
					t.Errorf("%s: the kinds' node codes are not the first request's: parsed again", name)
				}
			}
		}
		if got, want := memoSize(a), countKinds(machine); got != want {
			t.Errorf("%s: %d memoized encoders, want one per suite (kernel, kind): %d", machine.Name, got, want)
		}
	}
}

// countKinds is the number of (suite kernel, kind) pairs machine ranks.
func countKinds(machine hw.Machine) int {
	n := 0
	for _, k := range apps.Kernels() {
		n += len(kindsOf(k, machine))
	}
	return n
}

// TestEncoderMemoSkipsEditedSuiteNames: a custom kernel under a suite name
// whose source or arrays differ gets the answer a fresh advisor gives it —
// whether the suite kernel was advised before or after it — and leaves the
// memo as it was.
func TestEncoderMemoSkipsEditedSuiteNames(t *testing.T) {
	m := gnn.NewModel(gnn.Config{Seed: 4, Hidden: 8, Layers: 2, Relations: int(paragraph.NumEdgeTypes)})
	suiteK, _ := apps.ByName("matmul")
	editedSource := suiteK
	editedSource.Source = strings.Replace(suiteK.Source, "sum += a[i * n + k] * b[k * n + j];", "sum += a[i * n + k] * b[k * n + j] * 2.0;", 1)
	editedArrays := suiteK
	editedArrays.Arrays = slices.Clone(suiteK.Arrays)
	editedArrays.Arrays[2].SizeExpr = "n*n*n"
	bindings := analysis.Env{"n": 300}
	space := DefaultSearchSpace()
	fresh := func(k apps.Kernel) []Recommendation {
		recs, err := New(m, testPrep(), hw.V100()).Advise(k, bindings, space)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	wantSuite := fresh(suiteK)
	for _, custom := range []struct {
		name string
		k    apps.Kernel
	}{{"edited source", editedSource}, {"edited arrays", editedArrays}} {
		want := fresh(custom.k)
		if slices.Equal(want, wantSuite) {
			t.Fatalf("%s: a fresh advisor answers the suite kernel's ranking; the edit shows nothing", custom.name)
		}
		type asked struct {
			name string
			k    apps.Kernel
			want []Recommendation
		}
		suiteAsk, customAsk := asked{"suite matmul", suiteK, wantSuite}, asked{custom.name, custom.k, want}
		for _, suiteFirst := range []bool{true, false} {
			a := New(m, testPrep(), hw.V100())
			order := []asked{customAsk, suiteAsk}
			if suiteFirst {
				order = []asked{suiteAsk, customAsk}
			}
			for _, q := range order {
				got, err := a.Advise(q.k, bindings, space)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRanking(t, fmt.Sprintf("%s (suite first: %v)", q.name, suiteFirst), got, q.want)
			}
			if got, want := memoSize(a), len(kindsOf(suiteK, hw.V100())); got != want {
				t.Errorf("%s (suite first: %v): %d memoized encoders, want matmul's %d", custom.name, suiteFirst, got, want)
			}
		}
	}
}

// TestEncoderMemoBounded: a thousand distinct custom kernels — renamed suite
// kernels and suite names over edited source — add nothing to the memo,
// and every suite kernel at every level fills it to the suite bound and no
// further.
func TestEncoderMemoBounded(t *testing.T) {
	a := New(weightOracle{}, testPrep(), hw.V100())
	matmul, _ := apps.ByName("matmul")
	onePoint := SearchSpace{GPUTeams: []int{64}, GPUThreads: []int{128}}
	for i := 0; i < 1000; i++ {
		k := matmul
		if i%2 == 0 {
			k.Name = fmt.Sprintf("matmul_%d", i)
		} else {
			k.Source = strings.Replace(matmul.Source, "double sum = 0.0;", fmt.Sprintf("double sum = %d.0;", i), 1)
		}
		if _, err := a.Advise(k, analysis.Env{"n": 256}, onePoint); err != nil {
			t.Fatal(err)
		}
	}
	if n := memoSize(a); n != 0 {
		t.Fatalf("1000 custom kernels left %d memoized encoders, want 0", n)
	}
	levels := []paragraph.Level{paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph}
	for round := 0; round < 2; round++ {
		for _, level := range levels {
			a.SetLevel(level)
			for _, k := range apps.Kernels() {
				if _, err := a.Advise(k, firstBindings(k), onePoint); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	bound := len(apps.Kernels()) * int(variants.NumKinds) * len(levels)
	if got, want := memoSize(a), countKinds(hw.V100())*len(levels); got != want || got > bound {
		t.Errorf("the suite at %d levels left %d memoized encoders, want %d (bound %d)", len(levels), got, want, bound)
	}
}

// batchRecorder is a ContextBatchPredictor over weightOracle, safe for
// concurrent calls, that keeps every batch it was handed.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]*gnn.Sample
}

func (r *batchRecorder) Predict(s *gnn.Sample) float64 { return weightOracle{}.Predict(s) }

func (r *batchRecorder) PredictBatchCtx(_ context.Context, ss []*gnn.Sample) ([]float64, error) {
	r.mu.Lock()
	r.batches = append(r.batches, ss)
	r.mu.Unlock()
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = r.Predict(s)
	}
	return out, nil
}

// TestConcurrentAdviseSharesMemoizedTopology: cold advises of one kernel
// racing on one advisor (run under -race in CI) each answer as a fresh
// advisor does, and every sample of one kind, across all of them, is built
// on one topology: the same node codes and edge lists by pointer.
func TestConcurrentAdviseSharesMemoizedTopology(t *testing.T) {
	k, _ := apps.ByName("matmul")
	rec := &batchRecorder{}
	a := New(rec, testPrep(), hw.V100())
	space := SearchSpace{GPUTeams: []int{16, 64}, GPUThreads: []int{64, 128}}
	const clients = 8
	got := make([][]Recommendation, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c], errs[c] = a.Advise(k, analysis.Env{"n": float64(100 + c)}, space)
		}()
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if errs[c] != nil {
			t.Fatal(errs[c])
		}
		want, err := New(weightOracle{}, testPrep(), hw.V100()).Advise(k, analysis.Env{"n": float64(100 + c)}, space)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRanking(t, fmt.Sprintf("client %d", c), got[c], want)
	}
	kinds := kindsOf(k, hw.V100())
	if n := memoSize(a); n != len(kinds) {
		t.Fatalf("%d memoized encoders, want %d", n, len(kinds))
	}
	// Each batch is one request's grid, kind-major, four points a kind.
	type structure struct{ kinds, src *int }
	var first []structure
	child := int(paragraph.Child)
	if len(rec.batches) != clients {
		t.Fatalf("%d model calls for %d requests", len(rec.batches), clients)
	}
	for _, batch := range rec.batches {
		if len(batch) != len(kinds)*4 {
			t.Fatalf("a batch of %d samples, want %d", len(batch), len(kinds)*4)
		}
		for i, s := range batch {
			got := structure{&s.G.Kinds[0], &s.G.Rels[child].Src[0]}
			if len(first) <= i/4 {
				first = append(first, got)
			} else if got != first[i/4] {
				t.Fatalf("%s: built on another topology than its kind's first sample", s.Name)
			}
		}
	}
}
