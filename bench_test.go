// Package paragraph_test is the benchmark harness: one sub-benchmark per
// table and figure of the paper's evaluation (regenerating the artifact end
// to end at benchmark scale), plus micro-benchmarks for the pipeline stages
// (parse, build, encode, simulate, forward, train step).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// BenchmarkArtifacts prints each regenerated artifact once, so
// `bench_output.txt` doubles as an experiment record.
package paragraph_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync/atomic"
	"testing"

	"paragraph/internal/advisor"
	"paragraph/internal/apps"
	"paragraph/internal/cparse"
	"paragraph/internal/dataset"
	"paragraph/internal/experiments"
	"paragraph/internal/gnn"
	"paragraph/internal/hw"
	"paragraph/internal/nn"
	"paragraph/internal/paragraph"
	"paragraph/internal/registry"
	"paragraph/internal/serve"
	"paragraph/internal/sim"
	"paragraph/internal/tensor"
	"paragraph/internal/variants"
)

// BenchmarkArtifacts regenerates each table and figure of the paper's
// evaluation end to end at tiny scale through Runner.Rows, one
// sub-benchmark per artifact (table1 … figure9). Every iteration builds a
// fresh Runner, so ns/op is the whole regeneration — dataset collection and
// the training runs the artifact needs, then its rows — not row assembly
// over a runner an earlier iteration filled. Each artifact is printed once.
// A sub-benchmark fails on an empty or degenerate result: no row of its
// check metric, a row of it that is not positive, or any value that is NaN
// or infinite.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range []struct {
		kind   string
		number int
		check  string // a metric every row of which must be positive
	}{
		{"table", 1, "kernels"},
		{"table", 2, "points"},
		{"table", 3, "norm_rmse"},
		{"table", 4, "rmse_ms"},
		{"figure", 4, "n"},
		{"figure", 5, "val_rmse"},
		{"figure", 6, "n"},
		{"figure", 7, "val_rmse"},
		{"figure", 8, "n"},
		{"figure", 9, "log_pearson"},
	} {
		printed := false
		b.Run(fmt.Sprintf("%s%d", a.kind, a.number), func(b *testing.B) {
			var r *experiments.Runner
			for i := 0; i < b.N; i++ {
				r = experiments.NewRunner(experiments.Tiny())
				rows, err := r.Rows(a.kind, a.number)
				if err != nil {
					b.Fatal(err)
				}
				checked := 0
				for _, row := range rows {
					if math.IsNaN(row.Value) || math.IsInf(row.Value, 0) {
						b.Fatalf("degenerate row %+v", row)
					}
					if row.Metric == a.check {
						if row.Value <= 0 {
							b.Fatalf("degenerate row %+v", row)
						}
						checked++
					}
				}
				if checked == 0 {
					b.Fatalf("no %s rows", a.check)
				}
			}
			if !printed {
				printed = true
				b.StopTimer()
				if err := r.Render(os.Stdout, a.kind, a.number); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- pipeline micro-benchmarks ---

var benchKernelSrc = func() string {
	k, _ := apps.ByName("matmul")
	src, err := variants.Generate(k, variants.GPUCollapseMem, 128, 128)
	if err != nil {
		panic(err)
	}
	return src
}()

// BenchmarkParseKernel measures the C frontend on a full kernel.
func BenchmarkParseKernel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cparse.ParseFunction(benchKernelSrc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildParaGraph measures AST→ParaGraph construction.
func BenchmarkBuildParaGraph(b *testing.B) {
	bindings := map[string]float64{"n": 512}
	for i := 0; i < b.N; i++ {
		_, err := paragraph.BuildKernel(benchKernelSrc, paragraph.Options{
			Level:    paragraph.LevelParaGraph,
			Threads:  1024,
			Bindings: bindings,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeGraph measures graph→tensor encoding.
func BenchmarkEncodeGraph(b *testing.B) {
	g, err := paragraph.BuildKernel(benchKernelSrc, paragraph.Options{
		Level: paragraph.LevelParaGraph, Bindings: map[string]float64{"n": 512},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gnn.Encode(g, int(paragraph.NumEdgeTypes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateKernel measures one simulated runtime measurement.
func BenchmarkSimulateKernel(b *testing.B) {
	k, _ := apps.ByName("matmul")
	in := variants.Instance{
		Kernel: k, Kind: variants.GPUCollapseMem, Teams: 128, Threads: 128,
		Bindings: map[string]float64{"n": 512}, Source: benchKernelSrc,
	}
	m := hw.V100()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(in, m, sim.Config{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSample builds one model-ready sample for forward/backward benches.
func benchSample(b *testing.B) *gnn.Sample {
	b.Helper()
	g, err := paragraph.BuildKernel(benchKernelSrc, paragraph.Options{
		Level: paragraph.LevelParaGraph, Threads: 1024,
		Bindings: map[string]float64{"n": 512},
	})
	if err != nil {
		b.Fatal(err)
	}
	eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
	if err != nil {
		b.Fatal(err)
	}
	eg.WScale = 10
	return &gnn.Sample{G: eg, Feats: [2]float64{0.5, 0.5}, Target: 0.4}
}

// BenchmarkGNNForward measures one inference pass of the RGAT model
// (engine path; steady state reports 0 allocs/op).
func BenchmarkGNNForward(b *testing.B) {
	s := benchSample(b)
	m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(s)
	}
}

// benchGrid encodes the 48 points of matmul's default V100 grid the way a
// cold advise does: advisor enumeration order (kind-major, then teams, then
// threads), one freshly built graph per point, the advisor's WScale set. It
// is the batch the engine is measured on, because a batch's cost depends on
// what its samples share: 48 clones of one graph would be family
// evaluation's zero-dirty-row case (head only) and measure nothing.
func benchGrid(b *testing.B) []*gnn.Sample {
	b.Helper()
	k, ok := apps.ByName("matmul")
	if !ok {
		b.Fatal("no matmul kernel")
	}
	// Encoding needs the advisor's scalers, never its predictor.
	a := advisor.New(gnn.NewModel(gnn.Config{Seed: 1, Hidden: 4, Layers: 1}), benchServePrep(), hw.V100())
	space := advisor.DefaultSearchSpace()
	var grid []*gnn.Sample
	for _, kind := range variants.Kinds() {
		if !kind.IsGPU() {
			continue
		}
		for _, teams := range space.GPUTeams {
			for _, threads := range space.GPUThreads {
				src, err := variants.Generate(k, kind, teams, threads)
				if err != nil {
					b.Fatal(err)
				}
				s, err := a.EncodeInstance(variants.Instance{
					Kernel: k, Kind: kind, Teams: teams, Threads: threads,
					Bindings: map[string]float64{"n": 512}, Source: src,
				})
				if err != nil {
					b.Fatal(err)
				}
				grid = append(grid, s)
			}
		}
	}
	if len(grid) != 48 {
		b.Fatalf("matmul V100 grid has %d points, want 48", len(grid))
	}
	return grid
}

// perSample reports the benchmark's mean cost per sample of an n-sample
// iteration.
func perSample(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
}

// BenchmarkPredictFastPath compares the tape path (the pre-engine Predict:
// a fresh tape and a fresh matrix per op) against the pooled
// fused engine: on a single sample, and across the 48-point matmul V100
// grid (benchGrid) — per point through the tape, as one PredictBatch call
// through the engine (family evaluation, additionally fanned across cores),
// and, as the engine's unbatched twin over the same 48 samples, one Predict
// per point. grid-48 against unbatched-48 is the family gain.
func BenchmarkPredictFastPath(b *testing.B) {
	s := benchSample(b)
	grid := benchGrid(b)
	m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	b.Run("tape-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.PredictTape(s)
		}
	})
	b.Run("tape-grid-48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, gs := range grid {
				_ = m.PredictTape(gs)
			}
		}
		perSample(b, len(grid))
	})
	b.Run("engine-single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.Predict(s)
		}
	})
	b.Run("engine-grid-48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = m.PredictBatch(grid)
		}
		perSample(b, len(grid))
	})
	b.Run("engine-unbatched-48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, gs := range grid {
				_ = m.Predict(gs)
			}
		}
		perSample(b, len(grid))
	})
}

// BenchmarkGNNTrainStep measures one sample's gradient at the default
// width: the autodiff tape's forward, backward and accumulate (the oracle,
// and what gnn.train_step_us in bench/ times), against the engine's forward
// and hand-derived backward that gnn.Model.Train runs.
func BenchmarkGNNTrainStep(b *testing.B) {
	s := benchSample(b)
	m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := nn.NewForward()
			pred := m.Forward(f, s)
			loss := f.Tape.MSE(pred, tensor.Scalar(s.Target))
			f.Backward(loss)
			f.Accumulate(1)
			nn.ZeroGrads(m.Params())
		}
	})
	b.Run("engine", func(b *testing.B) {
		grad := make([]float64, m.NumParams())
		step := m.Gradient([]*gnn.Sample{s})
		step(0, grad)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(grad)
			step(0, grad)
		}
	})
}

// BenchmarkTrainEpoch measures gnn.Model.Train in offline_train's shape
// (bench/train.go): the default POWER9 sweep prepared at the ParaGraph
// level, a seed-1 pick of 64 training and 16 validation samples, the served
// model's shape (Hidden 24, Layers 3) and mini-batches of 16. Each
// iteration fits a fresh model for 15 epochs, validation included, and
// ms/epoch is the mean epoch: per-example gradients, the merge, clip and
// Adam step of each mini-batch, then the validation pass.
func BenchmarkTrainEpoch(b *testing.B) {
	plat, err := dataset.Collect(hw.Power9(), dataset.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	prep, err := dataset.Prepare(plat.Points, dataset.PrepConfig{Level: paragraph.LevelParaGraph, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pick := func(from []*gnn.Sample, n int) []*gnn.Sample {
		if len(from) < n {
			b.Fatalf("%d samples, need %d", len(from), n)
		}
		out := make([]*gnn.Sample, n)
		for i, idx := range rng.Perm(len(from))[:n] {
			out[i] = from[idx]
		}
		return out
	}
	train, val := pick(prep.Train, 64), pick(prep.Val, 16)
	cfg := gnn.Config{Seed: 1, Hidden: 24, Layers: 3, Relations: int(paragraph.NumEdgeTypes)}
	const epochs = 15
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := gnn.NewModel(cfg)
		if _, err := m.Train(train, val, gnn.TrainConfig{Epochs: epochs, BatchSize: 16, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N*epochs), "ms/epoch")
}

// --- design-choice ablation benchmarks ---

// BenchmarkAblationGraphLevels compares forward-pass cost across the three
// representation levels: the augmentation's edges cost compute; weights are
// free (same edge count).
func BenchmarkAblationGraphLevels(b *testing.B) {
	for _, level := range []paragraph.Level{
		paragraph.LevelRawAST, paragraph.LevelAugmentedAST, paragraph.LevelParaGraph,
	} {
		b.Run(level.String(), func(b *testing.B) {
			g, err := paragraph.BuildKernel(benchKernelSrc, paragraph.Options{
				Level: level, Threads: 128, Bindings: map[string]float64{"n": 512},
			})
			if err != nil {
				b.Fatal(err)
			}
			eg, err := gnn.Encode(g, int(paragraph.NumEdgeTypes))
			if err != nil {
				b.Fatal(err)
			}
			eg.WScale = 10
			s := &gnn.Sample{G: eg, Feats: [2]float64{0.5, 0.5}}
			m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
			b.ReportMetric(float64(eg.NumEdges()), "edges")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Predict(s)
			}
		})
	}
}

// BenchmarkAblationWeightPath compares the RGAT layer on a graph with and
// without edge weights: the design choice that lets ParaGraph's W reach the
// embedding even on tree-shaped relations is the factor 1 + c·w̃ on Child
// edges, which a graph without weights never takes.
func BenchmarkAblationWeightPath(b *testing.B) {
	m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	for _, unweighted := range []bool{false, true} {
		name, s := "with-weights", benchSample(b)
		if unweighted {
			name = "without-weights"
			clear(s.G.LogW)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = m.Predict(s)
			}
		})
	}
}

// --- serving benchmarks (internal/serve) ---

// benchServePrep carries plausible training scalers without a training run.
func benchServePrep() *dataset.Prepared {
	return &dataset.Prepared{
		TargetScaler: dataset.Scaler{Min: math.Log(10), Max: math.Log(1e6)},
		TeamScaler:   dataset.Scaler{Min: 0, Max: 256},
		ThreadScaler: dataset.Scaler{Min: 1, Max: 256},
		WScale:       10,
	}
}

// benchServer builds an advisor service over a real (untrained) GNN for the
// V100 profile — the full serving stack minus model fitting.
func benchServer(b *testing.B) *serve.Server {
	b.Helper()
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 12, Layers: 2,
		Relations: int(paragraph.NumEdgeTypes)})
	s, err := serve.NewServer([]serve.Backend{
		{Machine: hw.V100(), Model: model, Prep: benchServePrep()},
	}, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	return s
}

func benchAdvise(b *testing.B, s *serve.Server, n float64) *httptest.ResponseRecorder {
	b.Helper()
	body, err := json.Marshal(serve.AdviseRequest{
		Kernel:   "matmul",
		Machine:  "NVIDIA V100 (GPU)",
		Bindings: map[string]float64{"n": n},
		Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
	})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
	}
	return rec
}

// BenchmarkServeAdviseCold measures a full advise request whose bindings
// never repeat: every iteration pays parse→build→encode→predict for the
// whole variant grid (the serial-CLI cost, now under the service).
func BenchmarkServeAdviseCold(b *testing.B) {
	s := benchServer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAdvise(b, s, float64(64+i))
	}
}

// BenchmarkAdviseColdSuite measures what a cold advise costs in process at
// the shape bench/'s advise_cold serves: the 17 suite kernels round-robin
// over the default search space on the V100 profile (24–48 points, 2–4
// variant kinds), Hidden 24 / Layers 3, bindings that never repeat.
// BenchmarkServeAdviseCold sweeps a two-point, one-kind grid and cannot see
// what a grid shares.
func BenchmarkAdviseColdSuite(b *testing.B) {
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 24, Layers: 3,
		Relations: int(paragraph.NumEdgeTypes)})
	a := advisor.New(model, benchServePrep(), hw.V100())
	kernels, space := apps.Kernels(), advisor.DefaultSearchSpace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernels[i%len(kernels)]
		bindings := map[string]float64{}
		for _, p := range k.Params {
			bindings[p.Name] = float64(p.Values[0] + i)
		}
		if _, err := a.Advise(k, bindings, space); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdviseColdSuiteParallel is BenchmarkAdviseColdSuite with one
// caller per P at once (b.RunParallel): the in-process shape of a server
// whose every evaluation slot is busy. Caller c of p sweeps the same
// rotation at bindings first value + c + p·i, so no two requests repeat.
func BenchmarkAdviseColdSuiteParallel(b *testing.B) {
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 24, Layers: 3,
		Relations: int(paragraph.NumEdgeTypes)})
	a := advisor.New(model, benchServePrep(), hw.V100())
	kernels, space := apps.Kernels(), advisor.DefaultSearchSpace()
	procs := runtime.GOMAXPROCS(0)
	var callers atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		offset := int(callers.Add(1)) - 1
		for i := 0; pb.Next(); i++ {
			k := kernels[i%len(kernels)]
			bindings := map[string]float64{}
			for _, p := range k.Params {
				bindings[p.Name] = float64(p.Values[0] + offset + procs*i)
			}
			if _, err := a.Advise(k, bindings, space); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkAdviseMaxGrid measures the largest grid an advise request may
// ask for: matmul on the V100 profile over 64 team counts × 16 thread
// counts, 4 GPU variant kinds × 1024 = advisor.MaxGridPoints points, cold,
// on BenchmarkAdviseColdSuite's model. Its reading bounds how long an
// advise on a suite kernel holds a connection and an evaluation slot.
func BenchmarkAdviseMaxGrid(b *testing.B) {
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 24, Layers: 3,
		Relations: int(paragraph.NumEdgeTypes)})
	a := advisor.New(model, benchServePrep(), hw.V100())
	k, _ := apps.ByName("matmul")
	var space advisor.SearchSpace
	for i := 1; i <= 64; i++ {
		space.GPUTeams = append(space.GPUTeams, 4*i)
	}
	for i := 1; i <= 16; i++ {
		space.GPUThreads = append(space.GPUThreads, 32*i)
	}
	if err := advisor.CheckSpace(k, hw.V100(), space); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := a.Advise(k, map[string]float64{"n": float64(512 + i)}, space)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != advisor.MaxGridPoints {
			b.Fatalf("%d grid points, want %d", len(recs), advisor.MaxGridPoints)
		}
	}
}

// BenchmarkServeAdviseCached measures the same request answered from the
// content-addressed response cache — the steady-state cost of repeated
// identical traffic.
func BenchmarkServeAdviseCached(b *testing.B) {
	s := benchServer(b)
	benchAdvise(b, s, 256) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := benchAdvise(b, s, 256)
		if i == 0 {
			var resp serve.AdviseResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || !resp.Cached {
				b.Fatalf("warm request not cached: %s", rec.Body.String())
			}
		}
	}
}

// BenchmarkAdviseWarmSuite measures a cache hit in process at the shape
// bench/'s advise_warm serves: the 17 suite kernels warmed at the default
// search space on the V100 profile (24–48 recommendations per answer),
// Hidden 24 / Layers 3, then asked again round-robin through
// Server.Handler. BenchmarkServeAdviseCached's two-point grid hides what
// rendering a full ranking costs.
func BenchmarkAdviseWarmSuite(b *testing.B) {
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 24, Layers: 3,
		Relations: int(paragraph.NumEdgeTypes)})
	s, err := serve.NewServer([]serve.Backend{
		{Machine: hw.V100(), Model: model, Prep: benchServePrep()},
	}, serve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	var bodies [][]byte
	for _, k := range apps.Kernels() {
		bindings := map[string]float64{}
		for _, p := range k.Params {
			bindings[p.Name] = float64(p.Values[0])
		}
		body, err := json.Marshal(serve.AdviseRequest{Kernel: k.Name, Machine: "NVIDIA V100 (GPU)", Bindings: bindings})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	hit := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/advise", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("advise: %d %s", rec.Code, rec.Body.String())
		}
		return rec
	}
	for _, body := range bodies {
		hit(body) // cold: fills the cache
	}
	for _, body := range bodies {
		var resp serve.AdviseResponse
		if err := json.Unmarshal(hit(body).Body.Bytes(), &resp); err != nil || !resp.Cached {
			b.Fatalf("warm request not cached: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit(bodies[i%len(bodies)])
	}
}

// benchCluster boots a two-peer consistent-hash tier over loopback HTTP
// (identical model seeds, so the peers are interchangeable) and returns the
// peer base URLs. Single-owner (rf=1), so the forwarded benchmark below
// keeps paying its hop.
func benchCluster(b *testing.B) [2]string {
	return benchClusterRF(b, 1)
}

// benchClusterRF is benchCluster with a replication factor.
func benchClusterRF(b *testing.B, rf int) [2]string {
	b.Helper()
	var urls [2]string
	var srvs [2]*serve.Server
	for i := range srvs {
		srvs[i] = benchServer(b)
		hs := httptest.NewServer(srvs[i].Handler())
		b.Cleanup(hs.Close)
		urls[i] = hs.URL
	}
	for i := range srvs {
		if err := srvs[i].EnableCluster(serve.ClusterConfig{Self: urls[i], Peers: urls[:], Replication: rf}); err != nil {
			b.Fatal(err)
		}
	}
	return urls
}

// benchClusterAdvise posts one advise over real HTTP (cluster benchmarks
// must pay the wire, unlike the httptest.Recorder path).
func benchClusterAdvise(b *testing.B, base string, n float64) serve.AdviseResponse {
	b.Helper()
	body, err := json.Marshal(serve.AdviseRequest{
		Kernel:   "matmul",
		Machine:  "NVIDIA V100 (GPU)",
		Bindings: map[string]float64{"n": n},
		Space:    &serve.SpaceSpec{GPUTeams: []int{64, 128}, GPUThreads: []int{128}},
	})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var out serve.AdviseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("advise: %d", resp.StatusCode)
	}
	return out
}

// benchClusterFindKeys probes the tier for one binding owned by the first
// peer and one owned by the second, so the local and forwarded benchmarks
// measure a deliberately-routed request rather than a coin flip.
func benchClusterFindKeys(b *testing.B, urls [2]string) (localN, forwardedN float64) {
	b.Helper()
	localN, forwardedN = -1, -1
	for n := 64.0; n < 64+512; n++ {
		owner := benchClusterAdvise(b, urls[0], n).ServedBy
		switch owner {
		case urls[0]:
			if localN < 0 {
				localN = n
			}
		case urls[1]:
			if forwardedN < 0 {
				forwardedN = n
			}
		}
		if localN >= 0 && forwardedN >= 0 {
			return localN, forwardedN
		}
	}
	b.Fatal("no binding found for both owners in 512 probes")
	return 0, 0
}

// BenchmarkServeAdviseClusterLocal measures a warm advise answered by the
// peer that received it (ring owner == receiver): one HTTP round trip plus
// a response-cache hit. Baseline for the forwarded variant below.
func BenchmarkServeAdviseClusterLocal(b *testing.B) {
	urls := benchCluster(b)
	localN, _ := benchClusterFindKeys(b, urls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClusterAdvise(b, urls[0], localN)
	}
}

// BenchmarkServeAdviseClusterForwarded measures the same warm advise when
// the receiving peer does not own the key: receiver HTTP round trip, ring
// lookup, proxy hop to the owner, owner's cache hit. The delta against
// ClusterLocal is the price of cache coherence across the tier.
func BenchmarkServeAdviseClusterForwarded(b *testing.B) {
	urls := benchCluster(b)
	_, forwardedN := benchClusterFindKeys(b, urls)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := benchClusterAdvise(b, urls[0], forwardedN); i == 0 && out.ServedBy != urls[1] {
			b.Fatalf("probe said peer B owns n=%v but served_by=%s", forwardedN, out.ServedBy)
		}
	}
}

// BenchmarkServeAdviseClusterReplicated measures the warm advise of
// BenchmarkServeAdviseClusterForwarded on an RF=2 tier: the owner's
// write-through has landed the entry on the receiving replica, so the
// request that previously paid a proxy hop per call is now a local cache
// hit. The delta against ClusterForwarded is what replication buys warm
// traffic (and what failover costs nothing extra to keep).
func BenchmarkServeAdviseClusterReplicated(b *testing.B) {
	urls := benchClusterRF(b, 2)
	_, forwardedN := benchClusterFindKeys(b, urls)
	// The probe warmed the key on its primary (peer B); wait for the
	// asynchronous write-through to land on peer A, after which A answers
	// it locally.
	for i := 0; ; i++ {
		out := benchClusterAdvise(b, urls[0], forwardedN)
		if out.Cached && out.ServedBy == urls[0] {
			break
		}
		if i > 1000 {
			b.Fatalf("replica copy never landed on peer A (served_by=%s)", out.ServedBy)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClusterAdvise(b, urls[0], forwardedN)
	}
}

// BenchmarkRegistryOpen measures checkpoint discovery + verified model
// loading (the cost of a train-free `serve -model-dir` boot per checkpoint).
func BenchmarkRegistryOpen(b *testing.B) {
	dir := b.TempDir()
	model := gnn.NewModel(gnn.Config{Seed: 1, Hidden: 12, Layers: 2,
		Relations: int(paragraph.NumEdgeTypes)})
	if _, err := registry.Save(dir, hw.V100(), "default", paragraph.LevelParaGraph,
		model, benchServePrep(), registry.TrainInfo{}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := registry.Open(dir, registry.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheSnapshotRestore measures one advise-cache persistence
// round-trip (what each periodic -cache-file snapshot and warm boot costs).
func BenchmarkCacheSnapshotRestore(b *testing.B) {
	src := benchServer(b)
	for i := 0; i < 16; i++ {
		benchAdvise(b, src, float64(64+i))
	}
	dst := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := src.SnapshotCache(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := dst.RestoreCache(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBatch measures PredictBatch over prefixes of the 48-point
// matmul V100 grid (benchGrid) — one point, one variant kind's 12-point
// family, the whole grid — against one Predict per point over the same 48
// samples; ns/sample falls with the batch as more points share a family.
func BenchmarkPredictBatch(b *testing.B) {
	m := gnn.NewModel(gnn.Config{Seed: 1, Relations: int(paragraph.NumEdgeTypes)})
	grid := benchGrid(b)
	for _, size := range []int{1, 12, 48} {
		batch := grid[:size]
		b.Run(fmt.Sprintf("grid-%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m.PredictBatch(batch)
			}
			perSample(b, size)
		})
	}
	b.Run("unbatched-48", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range grid {
				_ = m.Predict(s)
			}
		}
		perSample(b, len(grid))
	})
}

// BenchmarkVariantSweep measures full instance enumeration for the suite.
func BenchmarkVariantSweep(b *testing.B) {
	cfg := variants.SweepConfig{
		CPUThreads: []int{4, 8}, GPUTeams: []int{64}, GPUThreads: []int{128},
		MaxSizesPerKernel: 2,
	}
	for i := 0; i < b.N; i++ {
		ins, err := variants.SweepAll(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(ins) == 0 {
			b.Fatal("no instances")
		}
	}
}
