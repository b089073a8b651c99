package nn

import (
	"math/rand"
	"testing"

	"paragraph/internal/autodiff"
	"paragraph/internal/tensor"
)

// TestTrain drives the shared trainer on a linear regression: the loss
// falls, History and Progress see every epoch, an empty set is an error, and
// — the property both models inherit — the weights are a function of the seed
// and data at any worker count.
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
	fit := func(workers int) (string, History, int) {
		lin := NewLinear("lin", 3, 1, rand.New(rand.NewSource(5)))
		calls := 0
		hist, err := Train(lin.Params(), n, TrainConfig{
			Epochs: 12, BatchSize: 8, LR: 0.05, Workers: workers, Seed: 6,
			Progress: func(epoch int, _, _ float64) {
				if epoch != calls {
					t.Errorf("Progress saw epoch %d at call %d", epoch, calls)
				}
				calls++
			},
		}, func(f *Forward, i int) *autodiff.Var {
			return f.Tape.MSE(lin.Apply(f, f.Tape.Const(xs[i])), tensor.Scalar(ys[i]))
		}, func() float64 { return float64(calls) })
		if err != nil {
			t.Fatal(err)
		}
		return ChecksumParams(lin.Params()), hist, calls
	}
	want, hist, calls := fit(1)
	if calls != 12 || len(hist.TrainLoss) != 12 || len(hist.ValRMSE) != 12 {
		t.Fatalf("12 epochs: %d Progress calls, %d losses, %d validations", calls, len(hist.TrainLoss), len(hist.ValRMSE))
	}
	if hist.FinalValRMSE() != 11 {
		t.Errorf("FinalValRMSE = %v, want the last validate() result", hist.FinalValRMSE())
	}
	if first, last := hist.TrainLoss[0], hist.TrainLoss[11]; !(last < first/4) {
		t.Errorf("train loss %v → %v: the fit did not converge", first, last)
	}
	for _, workers := range []int{2, 8, 2, 8} {
		if got, _, _ := fit(workers); got != want {
			t.Errorf("Workers %d ended at %.12s, Workers 1 at %.12s", workers, got, want)
		}
	}
	if _, err := Train(nil, 0, TrainConfig{}, nil, nil); err == nil {
		t.Error("empty training set accepted")
	}
}
