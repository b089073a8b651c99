package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"paragraph/internal/tensor"
)

// gradCheck numerically verifies d loss / d input for every input matrix.
// build must construct the loss from the given tape and input vars.
func gradCheck(t *testing.T, name string, inputs []*tensor.Matrix, build func(tp *Tape, vars []*Var) *Var) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-3

	// Analytic gradients.
	tp := NewTape()
	vars := make([]*Var, len(inputs))
	for i, m := range inputs {
		vars[i] = tp.Var(m, true)
	}
	loss := build(tp, vars)
	tp.Backward(loss)

	lossAt := func() float64 {
		tp2 := NewTape()
		vars2 := make([]*Var, len(inputs))
		for i, m := range inputs {
			vars2[i] = tp2.Var(m, true)
		}
		return build(tp2, vars2).Value.At(0, 0)
	}

	for vi, m := range inputs {
		analytic := vars[vi].Grad()
		for i := range m.Data {
			orig := m.Data[i]
			m.Data[i] = orig + eps
			up := lossAt()
			m.Data[i] = orig - eps
			down := lossAt()
			m.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			got := analytic.Data[i]
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if math.Abs(numeric-got)/scale > tol {
				t.Errorf("%s: input %d elem %d: analytic %v vs numeric %v",
					name, vi, i, got, numeric)
			}
		}
	}
}

func randMat(rng *rand.Rand, r, c int) *tensor.Matrix {
	m := tensor.New(r, c)
	m.RandN(rng, 1)
	return m
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gradCheck(t, "matmul", []*tensor.Matrix{randMat(rng, 3, 4), randMat(rng, 4, 2)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Sum(tp.MatMul(vs[0], vs[1]))
		})
}

func TestGradAddAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gradCheck(t, "add", []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Sum(tp.Add(vs[0], vs[1]))
		})
	gradCheck(t, "addbias", []*tensor.Matrix{randMat(rng, 4, 3), randMat(rng, 1, 3)},
		func(tp *Tape, vs []*Var) *Var {
			// Square to make bias gradient non-trivial.
			s := tp.AddBias(vs[0], vs[1])
			return tp.Sum(tp.Hadamard(s, s))
		})
}

func TestGradScaleHadamard(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gradCheck(t, "scale", []*tensor.Matrix{randMat(rng, 2, 2)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Sum(tp.Scale(vs[0], -2.5))
		})
	gradCheck(t, "hadamard", []*tensor.Matrix{randMat(rng, 3, 2), randMat(rng, 3, 2)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Sum(tp.Hadamard(vs[0], vs[1]))
		})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gradCheck(t, "leakyrelu", []*tensor.Matrix{randMat(rng, 4, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Sum(tp.LeakyReLU(vs[0], 0.2))
		})
	gradCheck(t, "relu-squared", []*tensor.Matrix{randMat(rng, 4, 3)},
		func(tp *Tape, vs []*Var) *Var {
			r := tp.ReLU(vs[0])
			return tp.Sum(tp.Hadamard(r, r))
		})
}

func TestGradConcatGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gradCheck(t, "concat", []*tensor.Matrix{randMat(rng, 3, 2), randMat(rng, 3, 4)},
		func(tp *Tape, vs []*Var) *Var {
			c := tp.ConcatCols(vs[0], vs[1])
			return tp.Sum(tp.Hadamard(c, c))
		})
	idx := []int{2, 0, 0, 1}
	gradCheck(t, "gather", []*tensor.Matrix{randMat(rng, 3, 2)},
		func(tp *Tape, vs []*Var) *Var {
			g := tp.GatherRows(vs[0], idx)
			return tp.Sum(tp.Hadamard(g, g))
		})
	gradCheck(t, "scatter", []*tensor.Matrix{randMat(rng, 4, 2)},
		func(tp *Tape, vs []*Var) *Var {
			s := tp.ScatterAddRows(vs[0], idx, 3)
			return tp.Sum(tp.Hadamard(s, s))
		})
}

func TestGradMulColBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gradCheck(t, "mulcol", []*tensor.Matrix{randMat(rng, 4, 3), randMat(rng, 4, 1)},
		func(tp *Tape, vs []*Var) *Var {
			m := tp.MulColBroadcast(vs[0], vs[1])
			return tp.Sum(tp.Hadamard(m, m))
		})
}

func TestGradSegmentSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segments := []int{0, 0, 1, 1, 1, 3} // segment 2 empty
	gradCheck(t, "segsoftmax", []*tensor.Matrix{randMat(rng, 6, 1)},
		func(tp *Tape, vs []*Var) *Var {
			sm := tp.SegmentSoftmax(vs[0], segments, 4)
			// Weighted sum to give distinct upstream gradients.
			w := tensor.FromData(6, 1, []float64{1, 2, 3, 4, 5, 6})
			return tp.Sum(tp.Hadamard(sm, tp.Const(w)))
		})
}

func TestSegmentSoftmaxNormalizes(t *testing.T) {
	tp := NewTape()
	logits := tp.Const(tensor.FromData(5, 1, []float64{1, 2, 3, -1, 100}))
	segments := []int{0, 0, 0, 1, 1}
	sm := tp.SegmentSoftmax(logits, segments, 2)
	s0 := sm.Value.Data[0] + sm.Value.Data[1] + sm.Value.Data[2]
	s1 := sm.Value.Data[3] + sm.Value.Data[4]
	if math.Abs(s0-1) > 1e-12 || math.Abs(s1-1) > 1e-12 {
		t.Errorf("segment sums = %v, %v; want 1", s0, s1)
	}
	// Large logit should dominate without overflow.
	if sm.Value.Data[4] < 0.999 {
		t.Errorf("dominant logit prob = %v", sm.Value.Data[4])
	}
	if sm.Value.HasNaN() {
		t.Error("softmax produced NaN")
	}
}

func TestGradMeanRowsAndMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gradCheck(t, "meanrows", []*tensor.Matrix{randMat(rng, 5, 3)},
		func(tp *Tape, vs []*Var) *Var {
			m := tp.MeanRows(vs[0])
			return tp.Sum(tp.Hadamard(m, m))
		})
	target := randMat(rng, 4, 1)
	gradCheck(t, "mse", []*tensor.Matrix{randMat(rng, 4, 1)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.MSE(vs[0], target)
		})
}

func TestGradComposite(t *testing.T) {
	// A miniature attention computation end to end.
	rng := rand.New(rand.NewSource(9))
	h := randMat(rng, 4, 3)   // node features
	w := randMat(rng, 3, 3)   // projection
	att := randMat(rng, 6, 1) // attention params per edge
	src := []int{0, 1, 2, 3, 0, 2}
	dst := []int{1, 2, 3, 0, 2, 1}
	gradCheck(t, "composite", []*tensor.Matrix{h, w, att},
		func(tp *Tape, vs []*Var) *Var {
			proj := tp.MatMul(vs[0], vs[1])
			msgs := tp.GatherRows(proj, src)
			logits := tp.LeakyReLU(vs[2], 0.2)
			alpha := tp.SegmentSoftmax(logits, dst, 4)
			weighted := tp.MulColBroadcast(msgs, alpha)
			agg := tp.ScatterAddRows(weighted, dst, 4)
			pooled := tp.MeanRows(agg)
			return tp.Sum(tp.Hadamard(pooled, pooled))
		})
}

func TestNoGradForConstants(t *testing.T) {
	tp := NewTape()
	a := tp.Const(tensor.Scalar(2))
	b := tp.Const(tensor.Scalar(3))
	c := tp.Hadamard(a, b)
	if c.RequiresGrad() {
		t.Error("product of constants requires grad")
	}
	loss := tp.Sum(c)
	tp.Backward(loss)
	if a.Grad().Sum() != 0 {
		t.Error("constant accumulated gradient")
	}
}

func TestBackwardPanicsOnNonScalar(t *testing.T) {
	tp := NewTape()
	v := tp.Var(tensor.New(2, 2), true)
	defer func() {
		if recover() == nil {
			t.Error("no panic on non-scalar Backward")
		}
	}()
	tp.Backward(v)
}

func TestOpsPanicOnBadShapes(t *testing.T) {
	cases := []func(tp *Tape){
		func(tp *Tape) { tp.AddBias(tp.Const(tensor.New(2, 3)), tp.Const(tensor.New(1, 4))) },
		func(tp *Tape) { tp.ConcatCols(tp.Const(tensor.New(2, 3)), tp.Const(tensor.New(3, 3))) },
		func(tp *Tape) { tp.ScatterAddRows(tp.Const(tensor.New(2, 3)), []int{0}, 4) },
		func(tp *Tape) { tp.MulColBroadcast(tp.Const(tensor.New(2, 3)), tp.Const(tensor.New(2, 2))) },
		func(tp *Tape) { tp.SegmentSoftmax(tp.Const(tensor.New(2, 2)), []int{0, 0}, 1) },
		func(tp *Tape) { tp.MSE(tp.Const(tensor.New(2, 1)), tensor.New(3, 1)) },
		func(tp *Tape) { tp.MeanRows(tp.Const(tensor.New(0, 2))) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn(NewTape())
		}()
	}
}

func TestTapeOpsCount(t *testing.T) {
	tp := NewTape()
	a := tp.Var(tensor.Scalar(1), true)
	b := tp.Hadamard(a, a)
	_ = tp.Sum(b)
	if tp.Ops() != 2 {
		t.Errorf("Ops = %d, want 2", tp.Ops())
	}
}

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// f(x) = x*x + x → f'(x) = 2x + 1 at x=3 → 7.
	tp := NewTape()
	x := tp.Var(tensor.Scalar(3), true)
	sq := tp.Hadamard(x, x)
	sum := tp.Add(sq, x)
	loss := tp.Sum(sum)
	tp.Backward(loss)
	if got := x.Grad().At(0, 0); math.Abs(got-7) > 1e-12 {
		t.Errorf("grad = %v, want 7", got)
	}
}
