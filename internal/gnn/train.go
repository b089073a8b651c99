package gnn

import (
	"math"
	"runtime"
	"sync"

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
// and the data, not on GOMAXPROCS.
func (m *Model) Train(train, val []*Sample, cfg TrainConfig) (History, error) {
	return nn.Train(m.params, len(train), cfg,
		func() nn.Gradient { return m.Gradient(train) },
		func() float64 {
			// The optimizer stepped the parameters in place: bring the
			// values derived from them (inferparams.go) up to date, for
			// validation and for every prediction after Train.
			m.refresh()
			return m.EvalRMSE(val, 0)
		})
}

// EvalRMSE computes the RMSE of scaled predictions over samples, predicted
// by PredictAll. Empty input returns 0. The int argument is ignored; it is
// retained because bench/layers.go calls EvalRMSE(val, 0), and it goes with
// ROADMAP item 26.
func (m *Model) EvalRMSE(samples []*Sample, _ int) float64 {
	if len(samples) == 0 {
		return 0
	}
	preds := m.PredictAll(samples)
	var acc float64
	for i, s := range samples {
		d := preds[i] - s.Target
		acc += float64(d * d)
	}
	return math.Sqrt(acc / float64(len(samples)))
}

// PredictAll returns scaled predictions for all samples: they are cut into
// one contiguous chunk per P (GOMAXPROCS), and each chunk is evaluated as
// PredictBatch would on a goroutine of its own. It is the offline data
// parallelism of validation and the experiments, and the engine's only
// fan-out; PredictBatch(samples) gives the same bits.
func (m *Model) PredictAll(samples []*Sample) []float64 {
	preds := make([]float64, len(samples))
	procs := runtime.GOMAXPROCS(0)
	chunk := (len(samples) + procs - 1) / procs
	var wg sync.WaitGroup
	for lo := 0; lo < len(samples); lo += chunk {
		hi := min(lo+chunk, len(samples))
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.predict(preds[lo:hi], samples[lo:hi])
		}()
	}
	wg.Wait()
	return preds
}
