package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"paragraph/internal/tensor"
)

// TestTrain drives the shared trainer on a linear regression: the loss
// falls, History and Progress see every epoch, an empty set is an error, and
// — the property both models inherit — the weights are a function of the seed
// and data at any GOMAXPROCS.
func TestTrain(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 40
	xs := make([]*tensor.Matrix, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = tensor.New(1, 3)
		xs[i].RandN(rng, 1)
		ys[i] = 0.5*xs[i].Data[0] - 0.25*xs[i].Data[2] + 0.1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fit := func(procs int) (string, History, int) {
		runtime.GOMAXPROCS(procs)
		lin := NewLinear("lin", 3, 1, rand.New(rand.NewSource(5)))
		calls, batches := 0, 0
		hist, err := Train(lin.Params(), n, TrainConfig{
			Epochs: 12, BatchSize: 8, LR: 0.05, Seed: 6,
			Progress: func(epoch int, _, _ float64) {
				if epoch != calls {
					t.Errorf("Progress saw epoch %d at call %d", epoch, calls)
				}
				calls++
			},
		}, func() Gradient {
			batches++
			// y = x·W + b: dW = xᵀ·dy, db = dy, in Params order (W, then b).
			return func(i int, grad []float64) float64 {
				x := xs[i].Data
				d := tensor.Dot(x, lin.W.Value.Data) + lin.B.Value.Data[0] - ys[i]
				for k, v := range x {
					grad[k] = v * 2 * d
				}
				grad[len(x)] = 2 * d
				return d * d
			}
		}, func() float64 { return float64(calls) })
		if err != nil {
			t.Fatal(err)
		}
		if batches != 12*n/8 {
			t.Errorf("%d Gradient calls, want one per mini-batch (%d)", batches, 12*n/8)
		}
		return ChecksumParams(lin.Params()), hist, calls
	}
	want, hist, calls := fit(1)
	if calls != 12 || len(hist.TrainLoss) != 12 || len(hist.ValRMSE) != 12 || len(hist.EpochSeconds) != 12 {
		t.Fatalf("12 epochs: %d Progress calls, %d losses, %d validations, %d epoch times",
			calls, len(hist.TrainLoss), len(hist.ValRMSE), len(hist.EpochSeconds))
	}
	for epoch, s := range hist.EpochSeconds {
		if !(s > 0) {
			t.Errorf("epoch %d took %v s", epoch, s)
		}
	}
	if hist.FinalValRMSE() != 11 {
		t.Errorf("FinalValRMSE = %v, want the last validate() result", hist.FinalValRMSE())
	}
	if first, last := hist.TrainLoss[0], hist.TrainLoss[11]; !(last < first/4) {
		t.Errorf("train loss %v → %v: the fit did not converge", first, last)
	}
	for _, procs := range []int{2, 4, 2, 4} {
		if got, _, _ := fit(procs); got != want {
			t.Errorf("GOMAXPROCS %d ended at %.12s, GOMAXPROCS 1 at %.12s", procs, got, want)
		}
	}
	if _, err := Train(nil, 0, TrainConfig{}, nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
}
