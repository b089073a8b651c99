package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"paragraph/internal/fp"
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

// quadGradient returns a Gradient over params whose example i pulls every
// element towards its own target t_i(e): the gradient 2·(value − t_i) per
// element, its values spread over ten orders of magnitude so that adding
// the batch's slots in another order changes bits.
func quadGradient(params []*Parameter, n int) func() Gradient {
	rng := rand.New(rand.NewSource(8))
	targets := make([][]float64, n)
	for i := range targets {
		targets[i] = make([]float64, NumElements(params))
		for e := range targets[i] {
			targets[i][e] = rng.NormFloat64() * float64(int64(1)<<rng.Intn(34))
		}
	}
	return func() Gradient {
		return func(i int, grad []float64) float64 {
			var loss float64
			e := 0
			for _, p := range params {
				for _, v := range p.Value.Data {
					d := v - targets[i][e]
					grad[e] = 2 * d
					loss += float64(d * d)
					e++
				}
			}
			return loss
		}
	}
}

// serialTrain is Train's step sequence on one goroutine, written out: the
// gradients of a mini-batch into fresh buffers, their merge slot by slot
// in batch order, ClipGradNorm, then Adam element by element in Params
// order. It is the reference for the merge and Adam step Train runs over
// parameter ranges.
func serialTrain(params []*Parameter, n int, cfg TrainConfig, batch func() Gradient) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	size := NumElements(params)
	m, v := make([]float64, size), make([]float64, size)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for lo := 0; lo < len(order); lo += cfg.BatchSize {
			idx := order[lo:min(lo+cfg.BatchSize, len(order))]
			grad := batch()
			scale := 1 / float64(len(idx))
			for _, i := range idx {
				buf := make([]float64, size)
				grad(i, buf)
				for _, p := range params {
					for e := range p.Grad.Data {
						p.Grad.Data[e] += float64(scale * buf[e])
					}
					buf = buf[len(p.Grad.Data):]
				}
			}
			ClipGradNorm(params, clipNorm)
			step++
			// Variables, not constants: 1 − β is rounded as Step rounds it.
			beta1, beta2 := 0.9, 0.999
			c1, c2 := 1-fp.Pow(beta1, step), 1-fp.Pow(beta2, step)
			e := 0
			for _, p := range params {
				for k, g := range p.Grad.Data {
					m[e] = float64(beta1*m[e]) + float64((1-beta1)*g)
					v[e] = float64(beta2*v[e]) + float64((1-beta2)*g*g)
					mh, vh := m[e]/c1, v[e]/c2
					p.Value.Data[k] -= cfg.LR * mh / (math.Sqrt(vh) + 1e-8)
					e++
				}
				p.ZeroGrad()
			}
		}
	}
}

// shapedParams builds one parameter per shape, Glorot-initialised from seed.
func shapedParams(seed int64, shapes ...[2]int) []*Parameter {
	rng := rand.New(rand.NewSource(seed))
	var ps []*Parameter
	for i, s := range shapes {
		ps = append(ps, GlorotParameter(fmt.Sprint("p", i), s[0], s[1], rng))
	}
	return ps
}

// TestTrainStepMatchesSerial holds Train's merge, clip and Adam step to
// serialTrain bit for bit at 1 to 4 Ps: on fewer elements than Ps (so
// some Ps get no range), on fewer parameters than Ps, and with one
// parameter far larger than the rest (so a range boundary falls inside it).
func TestTrainStepMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	sets := map[string][][2]int{
		"one element":     {{1, 1}},
		"three elements":  {{1, 1}, {1, 2}},
		"two parameters":  {{3, 5}, {1, 5}},
		"one far largest": {{1, 3}, {2, 2}, {120, 50}, {1, 7}},
	}
	const n = 13
	cfg := TrainConfig{Epochs: 3, BatchSize: 5, LR: 0.01, Seed: 9}
	for name, shapes := range sets {
		want := shapedParams(1, shapes...)
		runtime.GOMAXPROCS(1)
		serialTrain(want, n, cfg, quadGradient(want, n))
		for _, procs := range []int{1, 2, 3, 4} {
			runtime.GOMAXPROCS(procs)
			got := shapedParams(1, shapes...)
			if _, err := Train(got, n, cfg, quadGradient(got, n), func() float64 { return 0 }); err != nil {
				t.Fatal(err)
			}
			for k, p := range got {
				for e, v := range p.Value.Data {
					if w := want[k].Value.Data[e]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("%s, GOMAXPROCS %d: %s[%d] = %v, serial reference %v", name, procs, p.Name, e, v, w)
					}
				}
				for e, g := range p.Grad.Data {
					if g != 0 {
						t.Fatalf("%s, GOMAXPROCS %d: %s.Grad[%d] = %v after the step, want 0", name, procs, p.Name, e, g)
					}
				}
			}
		}
	}
}

// TestTrainStepAllocs bounds what one warm mini-batch's merge, clip and
// Adam step allocate, counted at the test's GOMAXPROCS (testing.AllocsPerRun
// would pin it to 1): the worker goroutines' closures and the batch's loss
// slice, a constant that must not grow with the parameters' size or count.
func TestTrainStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are only meaningful unraced")
	}
	const batch = 16
	allocs := func(params []*Parameter) float64 {
		idx := make([]int, batch)
		for i := range idx {
			idx[i] = i
		}
		bufs := make([][]float64, batch)
		for i := range bufs {
			bufs[i] = make([]float64, NumElements(params))
		}
		grad := quadGradient(params, batch)()
		opt := NewAdam(1e-3)
		step := func() {
			batchGradients(params, idx, grad, bufs)
			ClipGradNorm(params, clipNorm)
			opt.Step(params)
		}
		step()
		step()
		runtime.GC()
		const rounds = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < rounds; r++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / rounds
	}
	small := allocs(shapedParams(1, [2]int{4, 4}, [2]int{1, 4}))
	var shapes [][2]int
	for i := 0; i < 60; i++ {
		shapes = append(shapes, [2]int{24, 24}, [2]int{1, 24})
	}
	large := allocs(shapedParams(1, shapes...))
	// About 8 + 5 per P in practice; a goroutine that blocks may add one.
	bound := float64(8 + 6*runtime.GOMAXPROCS(0))
	t.Logf("GOMAXPROCS %d: %.2f allocations per step on 20 elements, %.2f on %d", runtime.GOMAXPROCS(0), small, large, 60*(24*24+24))
	if large > bound || small > bound {
		t.Errorf("a warm step allocates %.2f times on 20 elements and %.2f on 36 000, want at most %v", small, large, bound)
	}
}
