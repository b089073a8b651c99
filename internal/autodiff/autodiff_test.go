package autodiff

import (
	"math"
	"math/rand"
	"testing"

	"paragraph/internal/tensor"
)

// gradCheck numerically verifies d loss / d input for every input matrix.
// build applies the ops under test to the given tape and input vars; the
// loss is the MSE of its output against zero, so every output element
// sends back a gradient of its own (2·out/n).
func gradCheck(t *testing.T, name string, inputs []*tensor.Matrix, build func(tp *Tape, vars []*Var) *Var) {
	t.Helper()
	const eps = 1e-5
	const tol = 1e-3

	loss := func(tp *Tape) (*Var, []*Var) {
		vars := make([]*Var, len(inputs))
		for i, m := range inputs {
			vars[i] = tp.Var(m, true)
		}
		out := build(tp, vars)
		return tp.MSE(out, tensor.New(out.Value.Rows, out.Value.Cols)), vars
	}

	// Analytic gradients.
	tp := NewTape()
	l, vars := loss(tp)
	tp.Backward(l)

	lossAt := func() float64 {
		l, _ := loss(NewTape())
		return l.Value.At(0, 0)
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
			return tp.MatMul(vs[0], vs[1])
		})
}

func TestGradAddAndBias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gradCheck(t, "add", []*tensor.Matrix{randMat(rng, 2, 3), randMat(rng, 2, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.Add(vs[0], vs[1])
		})
	gradCheck(t, "addbias", []*tensor.Matrix{randMat(rng, 4, 3), randMat(rng, 1, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.AddBias(vs[0], vs[1])
		})
}

func TestGradActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gradCheck(t, "leakyrelu", []*tensor.Matrix{randMat(rng, 4, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.LeakyReLU(vs[0], 0.2)
		})
	gradCheck(t, "relu", []*tensor.Matrix{randMat(rng, 4, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.ReLU(vs[0])
		})
}

func TestGradConcatGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	gradCheck(t, "concat", []*tensor.Matrix{randMat(rng, 3, 2), randMat(rng, 3, 4)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.ConcatCols(vs[0], vs[1])
		})
	idx := []int{2, 0, 0, 1}
	gradCheck(t, "gather", []*tensor.Matrix{randMat(rng, 3, 2)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.GatherRows(vs[0], idx)
		})
	gradCheck(t, "scatter", []*tensor.Matrix{randMat(rng, 4, 2)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.ScatterAddRows(vs[0], idx, 3)
		})
}

func TestGradMulColBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	gradCheck(t, "mulcol", []*tensor.Matrix{randMat(rng, 4, 3), randMat(rng, 4, 1)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.MulColBroadcast(vs[0], vs[1])
		})
}

func TestGradSegmentSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	segments := []int{0, 0, 1, 1, 1, 3} // segment 2 empty
	gradCheck(t, "segsoftmax", []*tensor.Matrix{randMat(rng, 6, 1)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.SegmentSoftmax(vs[0], segments, 4)
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
	for _, v := range sm.Value.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("softmax produced %v", v)
		}
	}
}

func TestGradMeanRowsAndMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	gradCheck(t, "meanrows", []*tensor.Matrix{randMat(rng, 5, 3)},
		func(tp *Tape, vs []*Var) *Var {
			return tp.MeanRows(vs[0])
		})
	// The harness squares MSE's output once more: the check runs through
	// MSE's backward against a target that is not zero.
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
			return tp.MeanRows(agg)
		})
}

func TestNoGradForConstants(t *testing.T) {
	tp := NewTape()
	a := tp.Const(tensor.Scalar(2))
	b := tp.Const(tensor.Scalar(3))
	x := tp.Var(tensor.Scalar(1), true)
	c := tp.MatMul(a, b)
	if c.requiresGrad {
		t.Error("product of constants requires grad")
	}
	tp.Backward(tp.Add(c, x))
	if a.Grad().At(0, 0) != 0 || b.Grad().At(0, 0) != 0 || c.Grad().At(0, 0) != 0 {
		t.Error("constant accumulated gradient")
	}
	if x.Grad().At(0, 0) != 1 {
		t.Errorf("parameter beside constants: grad %v, want 1", x.Grad().At(0, 0))
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

func TestGradAccumulatesAcrossUses(t *testing.T) {
	// f(x) = x*x + x → f'(x) = 2x + 1 at x=3 → 7.
	tp := NewTape()
	x := tp.Var(tensor.Scalar(3), true)
	sq := tp.MatMul(x, x)
	tp.Backward(tp.Add(sq, x))
	if got := x.Grad().At(0, 0); math.Abs(got-7) > 1e-12 {
		t.Errorf("grad = %v, want 7", got)
	}
}
