package gnn

import (
	"math"

	"paragraph/internal/nn"
)

// TrainConfig and History are the shared trainer's (nn.Train), under the
// names this package's callers have always used.
type (
	TrainConfig = nn.TrainConfig
	History     = nn.History
)

// Train optimizes the model on train with nn.Train — MSE against each
// sample's scaled target, every gradient from the engine and its backward
// (Gradient) — evaluating on val each epoch. The result depends on cfg.Seed
// and the data, not on cfg.Workers.
func (m *Model) Train(train, val []*Sample, cfg TrainConfig) (History, error) {
	return nn.Train(m.params, len(train), cfg,
		func() nn.Gradient { return m.Gradient(train) },
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
		acc += float64(d * d)
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
