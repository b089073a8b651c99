package nn

import (
	"math"
	"math/rand"
	"testing"

	"paragraph/internal/tensor"
)

func TestParameterLifecycle(t *testing.T) {
	p := NewParameter("w", 2, 3)
	if p.Value.Rows != 2 || p.Grad.Cols != 3 {
		t.Fatal("shapes wrong")
	}
	p.Grad.Fill(1)
	p.ZeroGrad()
	if p.Grad.Sum() != 0 {
		t.Error("ZeroGrad failed")
	}
	g := GlorotParameter("g", 4, 4, rand.New(rand.NewSource(1)))
	if g.Value.Norm2() == 0 {
		t.Error("Glorot left zeros")
	}
}

func TestForwardBindCaching(t *testing.T) {
	p := NewParameter("w", 1, 1)
	f := NewForward()
	v1 := f.Bind(p)
	v2 := f.Bind(p)
	if v1 != v2 {
		t.Error("Bind should cache per parameter")
	}
	if !v1.RequiresGrad() {
		t.Error("training bind should require grad")
	}
}

// fromRows builds a matrix from literal rows.
func fromRows(rows [][]float64) *tensor.Matrix {
	m := tensor.New(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m
}

func TestLinearApply(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear("l", 3, 2, rng)
	l.W.Value = fromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	l.B.Value = fromRows([][]float64{{10, 20}})
	f := NewForward()
	x := f.Tape.Const(fromRows([][]float64{{1, 2, 3}}))
	y := l.Apply(f, x)
	if y.Value.At(0, 0) != 1+3+10 || y.Value.At(0, 1) != 2+3+20 {
		t.Errorf("Linear output = %v", y.Value)
	}
	if len(l.Params()) != 2 {
		t.Error("Linear params count")
	}
}

// TestLinearRowMatchesApply holds the models' dense layer — Row, ReLU,
// ReLUBack and Back — to Apply and ReLU on the tape, bit for bit: the
// output, the W, b and x gradients. The input has zero elements, some
// pre-activations are negative (so the ReLU mask blocks a gradient), and
// one case sends an all-zero upstream gradient.
func TestLinearRowMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const in, out = 13, 6
	l := NewLinear("l", in, out, rng)
	l.B.Value.RandN(rng, 0.5)
	x := make([]float64, in)
	for k := range x {
		if k%4 != 1 {
			x[k] = rng.NormFloat64()
		}
	}
	up := make([]float64, out)
	for j := range up {
		up[j] = rng.NormFloat64()
	}
	same := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s[%d] = %v, tape %v", what, i, got[i], want[i])
			}
		}
	}
	for _, c := range []struct {
		name string
		up   []float64
	}{{"upstream", up}, {"zero upstream", make([]float64, out)}} {
		t.Run(c.name, func(t *testing.T) {
			// The tape: loss = Σ ReLU(x·W + b) ⊙ up, so dL/dh = up.
			f := NewForward()
			xv := f.Tape.Var(tensor.FromData(1, in, append([]float64(nil), x...)), true)
			zv := l.Apply(f, xv)
			loss := f.Tape.Sum(f.Tape.Hadamard(f.Tape.ReLU(zv), f.Tape.Const(tensor.FromData(1, out, c.up))))
			f.Backward(loss)
			grads := f.Gradients()

			z, h := make([]float64, out), make([]float64, out)
			l.Row(x, z)
			same("z", z, zv.Value.Data)
			negative := false
			for _, v := range z {
				negative = negative || v < 0
			}
			if !negative {
				t.Fatal("no negative pre-activation: the ReLU mask is untested")
			}
			ReLU(z, h)
			for j, v := range h {
				if v != max(z[j], 0) {
					t.Errorf("h[%d] = %v for z %v", j, v, z[j])
				}
			}
			dz := append([]float64(nil), c.up...)
			ReLUBack(z, dz)
			grad := make([]float64, NumElements(l.Params()))
			dx := make([]float64, in)
			l.Back(x, dz, grad, dx)
			same("dW", grad[:in*out], grads[l.W].Data)
			same("db", grad[in*out:], grads[l.B].Data)
			same("dx", dx, xv.Grad().Data)
		})
	}
}

func TestLinearGradientDescentConverges(t *testing.T) {
	// Fit y = 2x - 1 with a single linear unit.
	rng := rand.New(rand.NewSource(3))
	l := NewLinear("fit", 1, 1, rng)
	opt := NewAdam(0.05)
	params := l.Params()
	var loss float64
	for step := 0; step < 300; step++ {
		x := rng.Float64()*4 - 2
		target := 2*x - 1
		f := NewForward()
		xv := f.Tape.Const(tensor.Scalar(x))
		pred := l.Apply(f, xv)
		lv := f.Tape.MSE(pred, tensor.Scalar(target))
		f.Backward(lv)
		f.Accumulate(1)
		opt.Step(params)
		loss = lv.Value.At(0, 0)
	}
	if loss > 1e-3 {
		t.Errorf("final loss %v, want < 1e-3", loss)
	}
	if math.Abs(l.W.Value.At(0, 0)-2) > 0.1 || math.Abs(l.B.Value.At(0, 0)+1) > 0.1 {
		t.Errorf("learned w=%v b=%v, want 2/-1", l.W.Value.At(0, 0), l.B.Value.At(0, 0))
	}
}

func TestEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEmbedding("e", 5, 3, rng)
	f := NewForward()
	out := e.Apply(f, []int{0, 4, 0})
	if out.Value.Rows != 3 || out.Value.Cols != 3 {
		t.Fatalf("shape %dx%d", out.Value.Rows, out.Value.Cols)
	}
	for j := 0; j < 3; j++ {
		if out.Value.At(0, j) != out.Value.At(2, j) {
			t.Error("same id different rows")
		}
	}
	if len(e.Params()) != 1 {
		t.Error("Embedding params count")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range embedding id did not panic")
		}
	}()
	e.Apply(f, []int{5})
}

func TestAccumulateScaling(t *testing.T) {
	p := NewParameter("p", 1, 1)
	p.Value.Set(0, 0, 3)
	f := NewForward()
	v := f.Bind(p)
	sq := f.Tape.Hadamard(v, v) // d/dp p² = 2p = 6
	loss := f.Tape.Sum(sq)
	f.Backward(loss)
	f.Accumulate(0.5)
	if got := p.Grad.At(0, 0); math.Abs(got-3) > 1e-12 {
		t.Errorf("scaled grad = %v, want 3", got)
	}
	grads := f.Gradients()
	if g, ok := grads[p]; !ok || math.Abs(g.At(0, 0)-6) > 1e-12 {
		t.Errorf("Gradients() = %v", grads)
	}
}

func TestClipGradNorm(t *testing.T) {
	p1 := NewParameter("a", 1, 1)
	p2 := NewParameter("b", 1, 1)
	p1.Grad.Set(0, 0, 3)
	p2.Grad.Set(0, 0, 4) // global norm 5
	params := []*Parameter{p1, p2}
	norm := ClipGradNorm(params, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %v", norm)
	}
	after := math.Sqrt(p1.Grad.At(0, 0)*p1.Grad.At(0, 0) + p2.Grad.At(0, 0)*p2.Grad.At(0, 0))
	if math.Abs(after-1) > 1e-9 {
		t.Errorf("post-clip norm = %v", after)
	}
	// Below threshold: untouched.
	p1.Grad.Set(0, 0, 0.1)
	p2.Grad.Set(0, 0, 0)
	ClipGradNorm(params, 1)
	if p1.Grad.At(0, 0) != 0.1 {
		t.Error("clip changed small gradients")
	}
	ZeroGrads(params)
	if p1.Grad.Sum() != 0 || p2.Grad.Sum() != 0 {
		t.Error("ZeroGrads failed")
	}
}

func TestAdamMovesAgainstGradient(t *testing.T) {
	p := NewParameter("p", 1, 1)
	p.Value.Set(0, 0, 1)
	p.Grad.Set(0, 0, 1) // positive gradient → value must decrease
	opt := NewAdam(0.1)
	opt.Step([]*Parameter{p})
	if p.Value.At(0, 0) >= 1 {
		t.Errorf("Adam moved wrong way: %v", p.Value.At(0, 0))
	}
	if p.Grad.Sum() != 0 {
		t.Error("Step should zero gradients")
	}
}
