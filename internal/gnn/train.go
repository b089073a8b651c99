package gnn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// TrainConfig controls optimization.
type TrainConfig struct {
	Epochs    int     // default 40
	BatchSize int     // default 32
	LR        float64 // default 3e-3
	ClipNorm  float64 // gradient clipping; default 5
	Workers   int     // parallel gradient workers; default GOMAXPROCS
	Seed      int64
	// Progress, when non-nil, receives (epoch, trainLoss, valRMSE-scaled)
	// after each epoch.
	Progress func(epoch int, trainLoss, valRMSE float64)
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs <= 0 {
		c.Epochs = 40
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 3e-3
	}
	if c.ClipNorm <= 0 {
		c.ClipNorm = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// History records per-epoch training diagnostics; ValRMSE is in the scaled
// target space (the unit of the paper's Figures 5 and 7 after
// normalization).
type History struct {
	TrainLoss []float64
	ValRMSE   []float64
}

// FinalValRMSE returns the last validation RMSE, or +Inf when absent.
func (h History) FinalValRMSE() float64 {
	if len(h.ValRMSE) == 0 {
		return math.Inf(1)
	}
	return h.ValRMSE[len(h.ValRMSE)-1]
}

// Train optimizes the model on train, evaluating on val each epoch.
// Gradients are computed data-parallel across cfg.Workers goroutines, each
// with its own tape, and merged in batch order (see trainBatch), so the
// result depends on cfg.Seed and the data, not on Workers; parameter updates
// use Adam on the merged gradients.
func (m *Model) Train(train, val []*Sample, cfg TrainConfig) (History, error) {
	cfg = cfg.withDefaults()
	if len(train) == 0 {
		return History{}, fmt.Errorf("gnn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR)
	var hist History

	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			loss := m.trainBatch(batch, train, cfg)
			nn.ClipGradNorm(m.params, cfg.ClipNorm)
			opt.Step(m.params)
			// The optimizer mutates parameter values in place; the engine's
			// precomputed projections (inferparams.go) are now stale.
			m.InvalidateInference()
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		valRMSE := m.EvalRMSE(val, cfg.Workers)
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.ValRMSE = append(hist.ValRMSE, valRMSE)
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss, valRMSE)
		}
	}
	return hist, nil
}

// trainBatch computes and accumulates gradients for one minibatch, returning
// the mean loss. Workers run the per-sample passes concurrently, each on its
// own Forward (tape), and leave the sample's parameter gradients and loss in
// its batch slot; the merge into the shared parameters then runs over the
// slots in batch order. Floating-point addition does not associate, so a
// merge in arrival order would make the weights depend on goroutine
// scheduling; merged in batch order, training is a function of its seed and
// data at any Workers.
func (m *Model) trainBatch(batch []int, train []*Sample, cfg TrainConfig) float64 {
	workers := cfg.Workers
	if workers > len(batch) {
		workers = len(batch)
	}
	grads := make([]map[*nn.Parameter]*tensor.Matrix, len(batch))
	losses := make([]float64, len(batch))
	var wg sync.WaitGroup
	work := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				s := train[batch[i]]
				f := nn.NewForward()
				pred := m.Forward(f, s)
				loss := f.Tape.MSE(pred, tensor.Scalar(s.Target))
				f.Backward(loss)
				// The gradient matrices outlive the pass; its tape does not.
				grads[i], losses[i] = f.Gradients(), loss.Value.At(0, 0)
			}
		}()
	}
	for i := range batch {
		work <- i
	}
	close(work)
	wg.Wait()

	scale := 1 / float64(len(batch))
	var totalLoss float64
	for i, g := range grads {
		for _, p := range m.params {
			if pg, ok := g[p]; ok {
				p.Grad.AxpyInPlace(scale, pg)
			}
		}
		totalLoss += losses[i] * scale
	}
	return totalLoss
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
