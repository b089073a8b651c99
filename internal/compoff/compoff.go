// Package compoff reimplements the paper's baseline: COMPOFF (Mishra et
// al., IPDPSW'22), a portable OpenMP-offloading cost model that feeds
// hand-engineered static kernel features — operation counts, memory
// accesses, loop structure, transfer volume, parallelism configuration —
// into a stacked multi-layer perceptron to predict kernel runtime. As in
// the paper, it targets GPU execution only (§V-D: "COMPOFF is currently
// only suitable for GPU execution") and serves as the comparison point for
// Figures 8 and 9. It is trained the way the GNN is: the same MinMax scaler
// (dataset.Scaler) per feature, the same trainer (nn.Train).
package compoff

import (
	"fmt"
	"math"
	"math/rand"

	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/dataset"
	"paragraph/internal/fp"
	"paragraph/internal/nn"
	"paragraph/internal/variants"
)

// NumFeatures is the engineered feature vector width.
const NumFeatures = 13

// FeatureNames documents the feature vector layout.
var FeatureNames = [NumFeatures]string{
	"log_flops", "log_intops", "log_loads", "log_stores", "log_branches",
	"log_mathcalls", "log_transfer_bytes", "log_parallel_iters",
	"collapse_depth", "loop_depth", "log_teams", "log_threads", "reductions",
}

// Features is one engineered feature vector.
type Features [NumFeatures]float64

// Extract computes the COMPOFF feature vector for a kernel instance. This
// is the manual feature engineering step the paper criticizes ("It requires
// figuring out how many operations are contained within a kernel") —
// implemented here via the same static analyzer the simulator uses.
func Extract(in variants.Instance) (Features, error) {
	var f Features
	fn, err := cparse.ParseFunction(in.Source)
	if err != nil {
		return f, fmt.Errorf("compoff: %w", err)
	}
	kc := analysis.AnalyzeKernel(fn, in.Bindings, analysis.DefaultTrip)
	f[0] = fp.Log1p(kc.Flops)
	f[1] = fp.Log1p(kc.IntOps)
	f[2] = fp.Log1p(kc.Loads)
	f[3] = fp.Log1p(kc.Stores)
	f[4] = fp.Log1p(kc.Branches)
	f[5] = fp.Log1p(kc.MathCalls)
	f[6] = fp.Log1p(kc.TransferBytes)
	f[7] = fp.Log1p(kc.ParallelIters)
	f[8] = float64(kc.CollapseDepth)
	f[9] = float64(kc.MaxLoopDepth)
	f[10] = fp.Log1p(float64(in.Teams))
	f[11] = fp.Log1p(float64(in.Threads))
	f[12] = float64(kc.ReductionOps)
	return f, nil
}

// Sample is one COMPOFF training example.
type Sample struct {
	Feats  Features
	Target float64 // scaled log-runtime, same scaling as the GNN's
	RawUS  float64
	Name   string
}

// hidden is the MLP's width, H.
const hidden = 32

// Model is the stacked MLP: NumFeatures → H → H → 1 with ReLU.
type Model struct {
	l1, l2, out *nn.Linear
	params      []*nn.Parameter
	// per-feature MinMax scaling (§IV-B), fitted on the training set
	scalers [NumFeatures]dataset.Scaler
	fitted  bool
}

// Config seeds the baseline model.
type Config struct {
	Seed int64
}

// NewModel constructs the MLP.
func NewModel(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		l1:  nn.NewLinear("compoff.l1", NumFeatures, hidden, rng),
		l2:  nn.NewLinear("compoff.l2", hidden, hidden, rng),
		out: nn.NewLinear("compoff.out", hidden, 1, rng),
	}
	m.params = append(m.params, m.l1.Params()...)
	m.params = append(m.params, m.l2.Params()...)
	m.params = append(m.params, m.out.Params()...)
	return m
}

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Parameter { return m.params }

// FitScaler learns per-feature MinMax bounds from the training samples.
func (m *Model) FitScaler(samples []*Sample) {
	col := make([]float64, len(samples))
	for j := range m.scalers {
		for i, s := range samples {
			col[i] = s.Feats[j]
		}
		m.scalers[j] = dataset.FitScaler(col)
	}
	m.fitted = true
}

// scaleRow normalizes a feature vector to [0,1] per feature (all zeros
// before FitScaler).
func (m *Model) scaleRow(f Features) Features {
	var row Features
	for j, v := range f {
		row[j] = m.scalers[j].Scale(v)
	}
	return row
}

// pass is one forward pass: the scaled input, each hidden layer's
// pre-activation z and ReLU output h, and the prediction.
type pass struct {
	x              Features
	z1, h1, z2, h2 []float64
	pred           float64
}

// dense computes z = x·W + b the way the tape's MatMul and AddBias do:
// each output accumulates its products in input order, zero inputs
// skipped, and the bias is added last.
func dense(x []float64, l *nn.Linear) []float64 {
	z := make([]float64, l.W.Value.Cols)
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		for j, wv := range l.W.Value.Row(k) {
			z[j] += float64(xv * wv)
		}
	}
	for j, b := range l.B.Value.Data {
		z[j] += b
	}
	return z
}

// relu returns max(z, 0) element-wise.
func relu(z []float64) []float64 {
	h := make([]float64, len(z))
	for j, v := range z {
		h[j] = max(v, 0)
	}
	return h
}

// forward computes the scaled prediction for one sample.
func (m *Model) forward(s *Sample) pass {
	p := pass{x: m.scaleRow(s.Feats)}
	p.z1 = dense(p.x[:], m.l1)
	p.h1 = relu(p.z1)
	p.z2 = dense(p.h1, m.l2)
	p.h2 = relu(p.z2)
	p.pred = dense(p.h2, m.out)[0]
	return p
}

// gradient writes the squared error's gradient for s into grad — the
// parameters in Params order, zeroed — and returns the squared error. It
// is the tape's backward written out: the same products in the same
// order, so the two agree bit for bit.
func (m *Model) gradient(s *Sample, grad []float64) float64 {
	p := m.forward(s)
	d := p.pred - s.Target
	gL1, rest := grad[:size(m.l1)], grad[size(m.l1):]
	gL2, gOut := rest[:size(m.l2)], rest[size(m.l2):]
	dh2 := backDense(p.h2, []float64{2 * d}, m.out, gOut)
	dh1 := backDense(p.h1, reluGrad(dh2, p.z2), m.l2, gL2)
	backDense(p.x[:], reluGrad(dh1, p.z1), m.l1, gL1)
	return d * d
}

// size is a layer's scalar parameter count: its block in a gradient.
func size(l *nn.Linear) int { return len(l.W.Value.Data) + len(l.B.Value.Data) }

// backDense backpropagates dz through z = x·W + b: it adds xᵀ·dz and dz
// into the layer's block of grad (W, then b) and returns dz·Wᵀ.
func backDense(x, dz []float64, l *nn.Linear, grad []float64) []float64 {
	gW, gB := grad[:len(l.W.Value.Data)], grad[len(l.W.Value.Data):]
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		row := gW[k*len(dz) : (k+1)*len(dz)]
		for j, g := range dz {
			row[j] += float64(xv * g)
		}
	}
	dx := make([]float64, len(x))
	for j, g := range dz {
		gB[j] += g
		if g == 0 {
			continue
		}
		for k := range dx {
			dx[k] += float64(g * l.W.Value.At(k, j))
		}
	}
	return dx
}

// reluGrad passes dh where the pre-activation z is ≥ 0, as the tape's ReLU
// does (z == 0 included).
func reluGrad(dh, z []float64) []float64 {
	dz := make([]float64, len(dh))
	for j, v := range z {
		if v >= 0 {
			dz[j] = dh[j]
		}
	}
	return dz
}

// Predict returns the scaled prediction for one sample.
func (m *Model) Predict(s *Sample) float64 { return m.forward(s).pred }

// PredictAll returns scaled predictions for all samples.
func (m *Model) PredictAll(samples []*Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = m.Predict(s)
	}
	return out
}

// Train fits the MLP with nn.Train — Adam on MSE, the original COMPOFF
// recipe and the trainer the GNN uses — for 60 epochs unless cfg says
// otherwise. It fits the feature scaler on train if not already fitted.
func (m *Model) Train(train, val []*Sample, cfg nn.TrainConfig) (nn.History, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 60
	}
	if !m.fitted && len(train) > 0 {
		m.FitScaler(train)
	}
	return nn.Train(m.params, len(train), cfg,
		func() nn.Gradient {
			return func(i int, grad []float64) float64 { return m.gradient(train[i], grad) }
		},
		func() float64 { return m.EvalRMSE(val) })
}

// EvalRMSE returns the scaled-space RMSE over samples (0 when empty).
func (m *Model) EvalRMSE(samples []*Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	var acc float64
	for _, s := range samples {
		d := m.Predict(s) - s.Target
		acc += float64(d * d)
	}
	return math.Sqrt(acc / float64(len(samples)))
}
