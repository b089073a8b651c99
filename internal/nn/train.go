package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"paragraph/internal/autodiff"
	"paragraph/internal/tensor"
)

// TrainConfig controls optimization. Zero values take the noted defaults.
type TrainConfig struct {
	Epochs    int     // default 40
	BatchSize int     // default 32
	LR        float64 // default 3e-3
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
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// clipNorm bounds the global gradient norm of every step.
const clipNorm = 5

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

// Train is the mini-batch trainer of every model in this tree (§IV-B: Adam
// on MSE): each epoch shuffles the n examples, and each mini-batch computes
// its examples' gradients data-parallel across cfg.Workers goroutines,
// merges them in batch order (see batchGradients), clips the global norm
// and takes one Adam step on params. loss builds example i's loss on the
// given pass; it runs concurrently with itself and must only read params.
// validate runs after each epoch's last step and returns that epoch's
// validation RMSE. The result depends on cfg.Seed, loss and the parameter
// values, not on Workers.
func Train(params []*Parameter, n int, cfg TrainConfig,
	loss func(f *Forward, i int) *autodiff.Var, validate func() float64) (History, error) {
	cfg = cfg.withDefaults()
	if n == 0 {
		return History{}, fmt.Errorf("nn: empty training set")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := NewAdam(cfg.LR)
	var hist History

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			epochLoss += batchGradients(params, batch, cfg.Workers, loss)
			ClipGradNorm(params, clipNorm)
			opt.Step(params)
			batches++
		}
		epochLoss /= float64(batches)
		valRMSE := validate()
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.ValRMSE = append(hist.ValRMSE, valRMSE)
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss, valRMSE)
		}
	}
	return hist, nil
}

// batchGradients computes and accumulates gradients for one minibatch,
// returning the mean loss. Workers run the per-example passes concurrently,
// each on its own Forward (tape), and leave the example's parameter
// gradients and loss in its batch slot; the merge into the shared
// parameters then runs over the slots in batch order. Floating-point
// addition does not associate, so a merge in arrival order would make the
// weights depend on goroutine scheduling; merged in batch order, training
// is a function of its seed and data at any worker count.
func batchGradients(params []*Parameter, batch []int, workers int, loss func(f *Forward, i int) *autodiff.Var) float64 {
	grads := make([]map[*Parameter]*tensor.Matrix, len(batch))
	losses := make([]float64, len(batch))
	var wg sync.WaitGroup
	work := make(chan int)
	workers = min(workers, len(batch))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				f := NewForward()
				l := loss(f, batch[i])
				f.Backward(l)
				// The gradient matrices outlive the pass; its tape does not.
				grads[i], losses[i] = f.Gradients(), l.Value.At(0, 0)
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
		for _, p := range params {
			if pg, ok := g[p]; ok {
				p.Grad.AxpyInPlace(scale, pg)
			}
		}
		totalLoss += losses[i] * scale
	}
	return totalLoss
}
