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
	"math/rand"

	"paragraph/internal/analysis"
	"paragraph/internal/cparse"
	"paragraph/internal/dataset"
	"paragraph/internal/fp"
	"paragraph/internal/metrics"
	"paragraph/internal/nn"
	"paragraph/internal/variants"
)

// NumFeatures is the engineered feature vector width.
const NumFeatures = 13

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
	x      Features
	z1, h1 [hidden]float64
	z2, h2 [hidden]float64
	pred   [1]float64
}

// forward runs s through the MLP into p.
func (m *Model) forward(s *Sample, p *pass) {
	p.x = m.scaleRow(s.Feats)
	m.l1.Row(p.x[:], p.z1[:])
	nn.ReLU(p.z1[:], p.h1[:])
	m.l2.Row(p.h1[:], p.z2[:])
	nn.ReLU(p.z2[:], p.h2[:])
	m.out.Row(p.h2[:], p.pred[:])
}

// gradient writes the squared error's gradient for s into grad — the
// parameters in Params order, zeroed — and returns the squared error. It
// is the tape's backward written out: the same products in the same
// order, so the two agree bit for bit.
func (m *Model) gradient(s *Sample, grad []float64) float64 {
	var p pass
	m.forward(s, &p)
	d := p.pred[0] - s.Target
	at2 := nn.NumElements(m.l1.Params())
	atOut := at2 + nn.NumElements(m.l2.Params())
	var dh1, dh2 [hidden]float64
	m.out.Back(p.h2[:], []float64{2 * d}, grad[atOut:], dh2[:])
	nn.ReLUBack(p.z2[:], dh2[:])
	m.l2.Back(p.h1[:], dh2[:], grad[at2:], dh1[:])
	nn.ReLUBack(p.z1[:], dh1[:])
	m.l1.Back(p.x[:], dh1[:], grad, nil)
	return d * d
}

// Predict returns the scaled prediction for one sample.
func (m *Model) Predict(s *Sample) float64 {
	var p pass
	m.forward(s, &p)
	return p.pred[0]
}

// PredictAll returns scaled predictions for all samples.
func (m *Model) PredictAll(samples []*Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = m.Predict(s)
	}
	return out
}

// Train fits the MLP with nn.Train — Adam on MSE, the original COMPOFF
// recipe and the trainer the GNN uses — for cfg.Epochs epochs (nn.Train's
// default when zero). It fits the feature scaler on train if not already
// fitted.
func (m *Model) Train(train, val []*Sample, cfg nn.TrainConfig) (nn.History, error) {
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
	targets := make([]float64, len(samples))
	for i, s := range samples {
		targets[i] = s.Target
	}
	return metrics.RMSE(m.PredictAll(samples), targets)
}
