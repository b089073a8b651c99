package compoff

import (
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paragraph/internal/apps"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
	"paragraph/internal/variants"
)

func instance(t *testing.T, kernelName string, kind variants.Kind, teams, threads int, bindings map[string]float64) variants.Instance {
	t.Helper()
	k, ok := apps.ByName(kernelName)
	if !ok {
		t.Fatalf("kernel %q not found", kernelName)
	}
	src, err := variants.Generate(k, kind, teams, threads)
	if err != nil {
		t.Fatal(err)
	}
	return variants.Instance{Kernel: k, Kind: kind, Teams: teams, Threads: threads, Bindings: bindings, Source: src}
}

func TestExtractFeatures(t *testing.T) {
	in := instance(t, "matmul", variants.GPUMem, 128, 64, map[string]float64{"n": 256})
	f, err := Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	// Flops, loads, stores, transfer, parallel iters must be present.
	for _, idx := range []int{0, 2, 3, 6, 7} {
		if f[idx] <= 0 {
			t.Errorf("feature %d = %v, want > 0", idx, f[idx])
		}
	}
	if f[10] != math.Log1p(128) {
		t.Errorf("log_teams = %v", f[10])
	}
	if f[11] != math.Log1p(64) {
		t.Errorf("log_threads = %v", f[11])
	}
	// Resident variant: no transfer.
	in2 := instance(t, "matmul", variants.GPU, 128, 64, map[string]float64{"n": 256})
	f2, err := Extract(in2)
	if err != nil {
		t.Fatal(err)
	}
	if f2[6] != 0 {
		t.Errorf("resident transfer feature = %v", f2[6])
	}
	// Collapse variant exposes more parallel iterations.
	in3 := instance(t, "matmul", variants.GPUCollapse, 128, 64, map[string]float64{"n": 256})
	f3, err := Extract(in3)
	if err != nil {
		t.Fatal(err)
	}
	if f3[7] <= f2[7] {
		t.Errorf("collapse parallel iters %v should exceed plain %v", f3[7], f2[7])
	}
	if f3[8] != 2 {
		t.Errorf("collapse depth = %v", f3[8])
	}
}

func TestExtractBadSource(t *testing.T) {
	in := variants.Instance{Source: "void broken( {"}
	if _, err := Extract(in); err == nil {
		t.Error("bad source accepted")
	}
}

func TestFeaturesScaleWithProblemSize(t *testing.T) {
	small, err := Extract(instance(t, "matmul", variants.GPU, 64, 64, map[string]float64{"n": 64}))
	if err != nil {
		t.Fatal(err)
	}
	big, err := Extract(instance(t, "matmul", variants.GPU, 64, 64, map[string]float64{"n": 512}))
	if err != nil {
		t.Fatal(err)
	}
	if big[0] <= small[0] {
		t.Errorf("log_flops did not grow: %v vs %v", small[0], big[0])
	}
}

// synthSamples builds a learnable synthetic dataset: target is a linear
// function of two features.
func synthSamples(n int, seed int64) []*Sample {
	rng := rand.New(rand.NewSource(seed))
	var out []*Sample
	for i := 0; i < n; i++ {
		var f Features
		for j := range f {
			f[j] = rng.Float64() * 10
		}
		target := 0.05*f[0] + 0.03*f[7]
		out = append(out, &Sample{Feats: f, Target: target})
	}
	return out
}

func TestTrainingConverges(t *testing.T) {
	samples := synthSamples(200, 1)
	train, val := samples[:180], samples[180:]
	m := NewModel(Config{Seed: 2})
	before := math.Inf(1)
	m.FitScaler(train)
	before = m.EvalRMSE(val)
	hist, err := m.Train(train, val, nn.TrainConfig{Epochs: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	after := hist.ValRMSE[len(hist.ValRMSE)-1]
	if after >= before/2 {
		t.Errorf("training barely helped: %v -> %v", before, after)
	}
	if after > 0.08 {
		t.Errorf("val RMSE %v too high for synthetic linear task", after)
	}
	if len(hist.TrainLoss) != 40 {
		t.Errorf("history = %d epochs", len(hist.TrainLoss))
	}
}

func TestTrainEmpty(t *testing.T) {
	m := NewModel(Config{})
	if _, err := m.Train(nil, nil, nn.TrainConfig{}); err == nil {
		t.Error("empty training accepted")
	}
}

// TestTrainDeterministicAcrossWorkers is gnn's test of the same name for the
// baseline: the trainer they share merges gradients in batch order, so the
// same seed and data end at the same weights at any GOMAXPROCS, run after
// run.
func TestTrainDeterministicAcrossWorkers(t *testing.T) {
	samples := synthSamples(60, 7)
	train, val := samples[:50], samples[50:]
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	checksum := func(procs int) string {
		runtime.GOMAXPROCS(procs)
		m := NewModel(Config{Seed: 2})
		if _, err := m.Train(train, val, nn.TrainConfig{Epochs: 3, BatchSize: 8, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		return nn.ChecksumParams(m.params)
	}
	want := checksum(1)
	for _, procs := range []int{1, 2, 4, 2, 4} {
		if got := checksum(procs); got != want {
			t.Errorf("GOMAXPROCS %d trained checkpoint %.12s, GOMAXPROCS 1 trained %.12s", procs, got, want)
		}
	}
}

func TestPredictDeterministicAndBatch(t *testing.T) {
	samples := synthSamples(10, 4)
	m := NewModel(Config{Seed: 5})
	m.FitScaler(samples)
	preds := m.PredictAll(samples)
	for i, s := range samples {
		if got := m.Predict(s); got != preds[i] {
			t.Errorf("sample %d: %v vs %v", i, got, preds[i])
		}
	}
	m2 := NewModel(Config{Seed: 5})
	m2.FitScaler(samples)
	if m2.Predict(samples[0]) != preds[0] {
		t.Error("same seed models disagree")
	}
}

func TestEvalRMSEEmpty(t *testing.T) {
	m := NewModel(Config{})
	if m.EvalRMSE(nil) != 0 {
		t.Error("empty EvalRMSE != 0")
	}
}

func TestScaleRowClamps(t *testing.T) {
	m := NewModel(Config{Seed: 1})
	m.FitScaler(synthSamples(20, 6))
	var f Features
	for j := range f {
		f[j] = 1e9 // way above fitted max
	}
	row := m.scaleRow(f)
	for j := 0; j < NumFeatures; j++ {
		if row[j] < 0 || row[j] > 1 {
			t.Errorf("scaled feature %d = %v", j, row[j])
		}
	}
	// Unfitted model scales to zero.
	m2 := NewModel(Config{})
	row2 := m2.scaleRow(f)
	for j := 0; j < NumFeatures; j++ {
		if row2[j] != 0 {
			t.Errorf("unfitted scale %d = %v", j, row2[j])
		}
	}
}

func TestNumParamsAndNames(t *testing.T) {
	m := NewModel(Config{})
	if len(m.params) != 6 { // 3 layers × (W, b)
		t.Errorf("params = %d", len(m.params))
	}
	// SaveParams refuses an empty or repeated parameter name.
	if err := nn.SaveParams(io.Discard, m.params); err != nil {
		t.Error(err)
	}
}

// tapeGradient is the oracle the hand-written pass is checked against: the
// same MLP built on an autodiff tape, its loss and its backward, with the
// per-parameter gradients laid out in Params order.
func tapeGradient(m *Model, s *Sample) (grad []float64, pred, loss float64) {
	f := nn.NewForward()
	x := m.scaleRow(s.Feats)
	h := f.Tape.ReLU(m.l1.Apply(f, f.Tape.Const(tensor.FromData(1, NumFeatures, x[:]))))
	h = f.Tape.ReLU(m.l2.Apply(f, h))
	out := m.out.Apply(f, h)
	l := f.Tape.MSE(out, tensor.Scalar(s.Target))
	f.Backward(l)
	grads := f.Gradients()
	for _, p := range m.params {
		grad = append(grad, grads[p].Data...)
	}
	return grad, out.Value.At(0, 0), l.Value.At(0, 0)
}

// TestGradientMatchesTape holds the hand-written forward and backward to
// the tape's, bit for bit: random weights, fitted and unfitted
// scalers (the latter feeds an all-zero input row), exact-zero features.
func TestGradientMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 60; trial++ {
		m := NewModel(Config{Seed: rng.Int63n(1000)})
		samples := synthSamples(6, rng.Int63())
		samples[0].Feats[3] = 0
		if trial%4 != 0 {
			m.FitScaler(samples)
		}
		for _, s := range samples {
			want, pred, wantLoss := tapeGradient(m, s)
			if got := m.Predict(s); got != pred {
				t.Fatalf("trial %d: Predict %v, tape %v", trial, got, pred)
			}
			got := make([]float64, len(want))
			if loss := m.gradient(s, got); loss != wantLoss {
				t.Fatalf("trial %d: loss %v, tape %v", trial, loss, wantLoss)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d: gradient element %d = %v, tape %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGradientMatchesFiniteDifferences guards against a mistake the hand
// pass and the tape could share: every parameter's gradient against a
// central difference of the loss.
func TestGradientMatchesFiniteDifferences(t *testing.T) {
	samples := synthSamples(4, 9)
	m := NewModel(Config{Seed: 3})
	m.FitScaler(samples)
	const h = 1e-6
	for _, s := range samples {
		grad := make([]float64, nn.NumElements(m.params))
		m.gradient(s, grad)
		loss := func() float64 { d := m.Predict(s) - s.Target; return d * d }
		i := 0
		for _, p := range m.params {
			for j, v := range p.Value.Data {
				p.Value.Data[j] = v + h
				up := loss()
				p.Value.Data[j] = v - h
				down := loss()
				p.Value.Data[j] = v
				if fd := (up - down) / (2 * h); math.Abs(fd-grad[i]) > 1e-6*math.Max(1, math.Abs(fd)) {
					t.Errorf("%s[%d]: gradient %v, central difference %v", p.Name, j, grad[i], fd)
				}
				i++
			}
		}
	}
}
