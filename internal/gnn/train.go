package gnn

import (
	"math"

	"paragraph/internal/autodiff"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// TrainConfig and History are the shared trainer's (nn.Train), under the
// names this package's callers have always used.
type (
	TrainConfig = nn.TrainConfig
	History     = nn.History
)

// Train optimizes the model on train with nn.Train — MSE against each
// sample's scaled target — evaluating on val each epoch. The result depends
// on cfg.Seed and the data, not on cfg.Workers.
func (m *Model) Train(train, val []*Sample, cfg TrainConfig) (History, error) {
	return nn.Train(m.params, len(train), cfg,
		func(f *nn.Forward, i int) *autodiff.Var {
			s := train[i]
			return f.Tape.MSE(m.Forward(f, s), tensor.Scalar(s.Target))
		},
		func() float64 {
			// The optimizer mutated parameter values in place; the engine's
			// precomputed projections (inferparams.go) are now stale.
			m.InvalidateInference()
			return m.EvalRMSE(val, cfg.Workers)
		})
}

// EvalRMSE computes the RMSE of scaled predictions over samples, in
// parallel. Empty input returns 0.
func (m *Model) EvalRMSE(samples []*Sample, workers int) float64 {
	if len(samples) == 0 {
		return 0
	}
	preds := m.PredictAll(samples, workers)
	var acc float64
	for i, s := range samples {
		d := preds[i] - s.Target
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(samples)))
}

// PredictAll returns scaled predictions for all samples, computed across
// workers goroutines (<= 0 defaults to GOMAXPROCS). It shares PredictBatch's
// engine fan-out, just with a caller-chosen worker bound.
func (m *Model) PredictAll(samples []*Sample, workers int) []float64 {
	preds := make([]float64, len(samples))
	m.predictInto(preds, samples, workers)
	return preds
}

// FitIncremental continues optimization from the model's current weights —
// the registry's feedback-retrain entry point. Unlike Train it defaults to a
// short, low-learning-rate schedule suited to folding a small increment of
// measured-runtime samples into an already-trained model without erasing
// what it knows. Zero-valued cfg fields take the incremental defaults
// (Epochs 8, BatchSize 16, LR 1e-3); explicit values win.
func (m *Model) FitIncremental(train, val []*Sample, cfg TrainConfig) (History, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 8
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	return m.Train(train, val, cfg)
}
