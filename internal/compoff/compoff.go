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
	"paragraph/internal/autodiff"
	"paragraph/internal/cparse"
	"paragraph/internal/dataset"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
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
func Extract(in variants.Instance, defaultTrip float64) (Features, error) {
	var f Features
	fn, err := cparse.ParseFunction(in.Source)
	if err != nil {
		return f, fmt.Errorf("compoff: %w", err)
	}
	if defaultTrip <= 0 {
		defaultTrip = 100
	}
	kc := analysis.AnalyzeKernel(fn, in.Bindings, defaultTrip)
	f[0] = math.Log1p(kc.Flops)
	f[1] = math.Log1p(kc.IntOps)
	f[2] = math.Log1p(kc.Loads)
	f[3] = math.Log1p(kc.Stores)
	f[4] = math.Log1p(kc.Branches)
	f[5] = math.Log1p(kc.MathCalls)
	f[6] = math.Log1p(kc.TransferBytes)
	f[7] = math.Log1p(kc.ParallelIters)
	f[8] = float64(kc.CollapseDepth)
	f[9] = float64(kc.MaxLoopDepth)
	f[10] = math.Log1p(float64(in.Teams))
	f[11] = math.Log1p(float64(in.Threads))
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

// Model is the stacked MLP: NumFeatures → H → H → 1 with ReLU.
type Model struct {
	l1, l2, out *nn.Linear
	params      []*nn.Parameter
	// per-feature MinMax scaling (§IV-B), fitted on the training set
	scalers [NumFeatures]dataset.Scaler
	fitted  bool
}

// Config shapes the baseline model.
type Config struct {
	Hidden int // default 32
	Seed   int64
}

// NewModel constructs the MLP.
func NewModel(cfg Config) *Model {
	if cfg.Hidden <= 0 {
		cfg.Hidden = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		l1:  nn.NewLinear("compoff.l1", NumFeatures, cfg.Hidden, rng),
		l2:  nn.NewLinear("compoff.l2", cfg.Hidden, cfg.Hidden, rng),
		out: nn.NewLinear("compoff.out", cfg.Hidden, 1, rng),
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
func (m *Model) scaleRow(f Features) *tensor.Matrix {
	row := tensor.New(1, NumFeatures)
	for j, v := range f {
		row.Data[j] = m.scalers[j].Scale(v)
	}
	return row
}

// forward computes the scaled prediction for one sample.
func (m *Model) forward(f *nn.Forward, s *Sample) *autodiff.Var {
	tp := f.Tape
	x := tp.Const(m.scaleRow(s.Feats))
	h := tp.ReLU(m.l1.Apply(f, x))
	h = tp.ReLU(m.l2.Apply(f, h))
	return m.out.Apply(f, h)
}

// Predict returns the scaled prediction for one sample.
func (m *Model) Predict(s *Sample) float64 {
	fw := nn.NewInference()
	return m.forward(fw, s).Value.At(0, 0)
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
		func(f *nn.Forward, i int) *autodiff.Var {
			s := train[i]
			return f.Tape.MSE(m.forward(f, s), tensor.Scalar(s.Target))
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
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(samples)))
}
