package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// TrainConfig controls optimization. Zero values take the noted defaults.
type TrainConfig struct {
	Epochs    int     // default 40
	BatchSize int     // default 32
	LR        float64 // default 3e-3
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
	return c
}

// clipNorm bounds the global gradient norm of every step.
const clipNorm = 5

// History records per-epoch training diagnostics; ValRMSE is in the scaled
// target space (the unit of the paper's Figures 5 and 7 after
// normalization). EpochSeconds is each epoch's wall time, its validation
// included.
type History struct {
	TrainLoss    []float64
	ValRMSE      []float64
	EpochSeconds []float64
}

// FinalValRMSE returns the last validation RMSE, or +Inf when absent.
func (h History) FinalValRMSE() float64 {
	if len(h.ValRMSE) == 0 {
		return math.Inf(1)
	}
	return h.ValRMSE[len(h.ValRMSE)-1]
}

// Gradient writes example i's loss gradient into grad and returns the
// example's loss. grad is one flat buffer holding every parameter's
// elements in the params order Train was given; it arrives zeroed. A
// Gradient runs concurrently with itself and must only read the parameters.
type Gradient func(i int, grad []float64) float64

// NumElements returns the scalar count of params: the length of a Gradient's
// buffer.
func NumElements(params []*Parameter) int {
	n := 0
	for _, p := range params {
		n += len(p.Value.Data)
	}
	return n
}

// Train is the mini-batch trainer of every model in this tree (§IV-B: Adam
// on MSE): each epoch shuffles the n examples, and each mini-batch computes
// its examples' gradients data-parallel across GOMAXPROCS goroutines,
// merges them in batch order (see batchGradients), clips the global norm
// and takes one Adam step on params. batch is called once per mini-batch,
// after the previous step, and returns that batch's Gradient, so a model
// can derive whatever it computes gradients from once per step. validate
// runs after each epoch's last step and returns that epoch's validation
// RMSE. The result depends on cfg.Seed, the gradients and the parameter
// values, not on GOMAXPROCS.
func Train(params []*Parameter, n int, cfg TrainConfig, batch func() Gradient, validate func() float64) (History, error) {
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
	// One gradient buffer per batch slot, reused by every batch.
	bufs := make([][]float64, min(cfg.BatchSize, n))
	for i := range bufs {
		bufs[i] = make([]float64, NumElements(params))
	}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var epochLoss float64
		var batches int
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			idx := order[lo:min(lo+cfg.BatchSize, len(order))]
			epochLoss += batchGradients(params, idx, batch(), bufs)
			ClipGradNorm(params, clipNorm)
			opt.Step(params)
			batches++
		}
		epochLoss /= float64(batches)
		valRMSE := validate()
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		hist.ValRMSE = append(hist.ValRMSE, valRMSE)
		hist.EpochSeconds = append(hist.EpochSeconds, time.Since(start).Seconds())
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss, valRMSE)
		}
	}
	return hist, nil
}

// batchGradients computes and accumulates gradients for one minibatch,
// returning the mean loss. GOMAXPROCS workers run the per-example
// gradients concurrently, each into its example's batch slot; the merge
// into the shared parameters then runs over the slots in batch order.
// Floating-point addition does not associate, so a merge in arrival order
// would make the weights depend on goroutine scheduling; merged in batch
// order, training is a function of its seed and data at any worker count.
func batchGradients(params []*Parameter, batch []int, grad Gradient, bufs [][]float64) float64 {
	losses := make([]float64, len(batch))
	var wg sync.WaitGroup
	work := make(chan int)
	workers := min(runtime.GOMAXPROCS(0), len(batch))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				clear(bufs[i])
				losses[i] = grad(batch[i], bufs[i])
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
	for i, buf := range bufs[:len(batch)] {
		for _, p := range params {
			pg := p.Grad.Data
			for j, v := range buf[:len(pg)] {
				pg[j] += float64(scale * v)
			}
			buf = buf[len(pg):]
		}
		totalLoss += float64(losses[i] * scale)
	}
	return totalLoss
}
