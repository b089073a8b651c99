// Package autodiff implements tape-based reverse-mode automatic
// differentiation over dense matrices (package tensor). It provides exactly
// the operator set a relational graph attention network needs: dense
// products, broadcasts, activations, row gather/scatter for message passing,
// and segment softmax for per-node attention normalization.
//
// A Tape is single-goroutine; a caller running passes in parallel gives each
// goroutine its own tape.
//
// The tape is the reference semantics, no longer a production path. Nothing
// in the main module trains or predicts through it: gnn's fused engine
// (gnn/infer.go) is the one forward pass, gnn's hand-derived backward
// (gnn/backward.go) and COMPOFF's compute every training gradient, and
// equivalence fuzzes pin each of them to the tape — predictions and
// gradients within 1e-9 relative. Changing a formula here therefore
// requires the matching engine and backward change (the gnn and compoff
// tests fail loudly if they drift). The tape stays public because the
// repository benchmark's gnn.train_step_us (bench/layers.go) times it.
package autodiff

import (
	"fmt"
	"math"

	"paragraph/internal/fp"
	"paragraph/internal/tensor"
)

// Var is a node in the computation graph: a matrix value and, after
// Backward, its gradient.
type Var struct {
	Value        *tensor.Matrix
	grad         *tensor.Matrix
	requiresGrad bool
	tape         *Tape
}

// RequiresGrad reports whether gradients flow into this variable.
func (v *Var) RequiresGrad() bool { return v.requiresGrad }

// Grad returns the accumulated gradient, allocating a zero matrix on first
// use.
func (v *Var) Grad() *tensor.Matrix {
	if v.grad == nil {
		v.grad = tensor.New(v.Value.Rows, v.Value.Cols)
	}
	return v.grad
}

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	backward []func()
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Var registers a matrix as a graph input. Pass requiresGrad=true for
// parameters and false for constants.
func (t *Tape) Var(m *tensor.Matrix, requiresGrad bool) *Var {
	return &Var{Value: m, requiresGrad: requiresGrad, tape: t}
}

// Const registers a non-differentiable input.
func (t *Tape) Const(m *tensor.Matrix) *Var { return t.Var(m, false) }

func (t *Tape) output(m *tensor.Matrix, inputs ...*Var) *Var {
	req := false
	for _, in := range inputs {
		if in.requiresGrad {
			req = true
			break
		}
	}
	return &Var{Value: m, requiresGrad: req, tape: t}
}

func (t *Tape) record(fn func()) {
	t.backward = append(t.backward, fn)
}

// Backward seeds the loss gradient with 1 and propagates through the tape in
// reverse. loss must be a 1×1 variable produced by this tape.
func (t *Tape) Backward(loss *Var) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward on non-scalar %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	loss.Grad().Set(0, 0, 1)
	for i := len(t.backward) - 1; i >= 0; i-- {
		t.backward[i]()
	}
}

// Ops returns the number of recorded operations (diagnostics).
func (t *Tape) Ops() int { return len(t.backward) }

// --- dense ops ---

// MatMul returns a×b.
func (t *Tape) MatMul(a, b *Var) *Var {
	out := t.output(tensor.MatMul(a.Value, b.Value), a, b)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			a.Grad().AddInPlace(tensor.MatMul(g, tensor.Transpose(b.Value)))
		}
		if b.requiresGrad {
			b.Grad().AddInPlace(tensor.MatMul(tensor.Transpose(a.Value), g))
		}
	})
	return out
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Var) *Var {
	out := t.output(tensor.Add(a.Value, b.Value), a, b)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			a.Grad().AddInPlace(g)
		}
		if b.requiresGrad {
			b.Grad().AddInPlace(g)
		}
	})
	return out
}

// AddBias returns a + bias, broadcasting the 1×C bias over a's rows.
func (t *Tape) AddBias(a, bias *Var) *Var {
	if bias.Value.Rows != 1 || bias.Value.Cols != a.Value.Cols {
		panic(fmt.Sprintf("autodiff: AddBias %dx%d + %dx%d",
			a.Value.Rows, a.Value.Cols, bias.Value.Rows, bias.Value.Cols))
	}
	m := a.Value.Clone()
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range bias.Value.Row(0) {
			row[j] += v
		}
	}
	out := t.output(m, a, bias)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			a.Grad().AddInPlace(g)
		}
		if bias.requiresGrad {
			bg := bias.Grad()
			for i := 0; i < g.Rows; i++ {
				for j, v := range g.Row(i) {
					bg.Data[j] += v
				}
			}
		}
	})
	return out
}

// Scale returns s*a for a constant s.
func (t *Tape) Scale(a *Var, s float64) *Var {
	m := a.Value.Clone()
	m.ScaleInPlace(s)
	out := t.output(m, a)
	t.record(func() {
		if out.requiresGrad && a.requiresGrad {
			a.Grad().AxpyInPlace(s, out.Grad())
		}
	})
	return out
}

// Hadamard returns the element-wise product a⊙b.
func (t *Tape) Hadamard(a, b *Var) *Var {
	out := t.output(tensor.Hadamard(a.Value, b.Value), a, b)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			a.Grad().AddInPlace(tensor.Hadamard(g, b.Value))
		}
		if b.requiresGrad {
			b.Grad().AddInPlace(tensor.Hadamard(g, a.Value))
		}
	})
	return out
}

// --- activations ---

// LeakyReLU returns max(x, alpha*x) element-wise.
func (t *Tape) LeakyReLU(a *Var, alpha float64) *Var {
	m := a.Value.Clone()
	for i, v := range m.Data {
		if v < 0 {
			m.Data[i] = alpha * v
		}
	}
	out := t.output(m, a)
	t.record(func() {
		if !out.requiresGrad || !a.requiresGrad {
			return
		}
		g := out.Grad()
		ag := a.Grad()
		for i, v := range a.Value.Data {
			if v >= 0 {
				ag.Data[i] += g.Data[i]
			} else {
				ag.Data[i] += float64(alpha * g.Data[i])
			}
		}
	})
	return out
}

// ReLU returns max(x, 0) element-wise.
func (t *Tape) ReLU(a *Var) *Var { return t.LeakyReLU(a, 0) }

// --- structural ops ---

// ConcatCols returns [a | b], concatenating along columns.
func (t *Tape) ConcatCols(a, b *Var) *Var {
	if a.Value.Rows != b.Value.Rows {
		panic(fmt.Sprintf("autodiff: ConcatCols rows %d vs %d", a.Value.Rows, b.Value.Rows))
	}
	m := tensor.New(a.Value.Rows, a.Value.Cols+b.Value.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i)[:a.Value.Cols], a.Value.Row(i))
		copy(m.Row(i)[a.Value.Cols:], b.Value.Row(i))
	}
	out := t.output(m, a, b)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			ag := a.Grad()
			for i := 0; i < g.Rows; i++ {
				row := g.Row(i)[:a.Value.Cols]
				arow := ag.Row(i)
				for j, v := range row {
					arow[j] += v
				}
			}
		}
		if b.requiresGrad {
			bg := b.Grad()
			for i := 0; i < g.Rows; i++ {
				row := g.Row(i)[a.Value.Cols:]
				brow := bg.Row(i)
				for j, v := range row {
					brow[j] += v
				}
			}
		}
	})
	return out
}

// GatherRows returns out[i] = a[idx[i]] (used to fetch per-edge endpoint
// features).
func (t *Tape) GatherRows(a *Var, idx []int) *Var {
	m := tensor.New(len(idx), a.Value.Cols)
	for i, src := range idx {
		copy(m.Row(i), a.Value.Row(src))
	}
	out := t.output(m, a)
	t.record(func() {
		if !out.requiresGrad || !a.requiresGrad {
			return
		}
		g := out.Grad()
		ag := a.Grad()
		for i, src := range idx {
			dst := ag.Row(src)
			for j, v := range g.Row(i) {
				dst[j] += v
			}
		}
	})
	return out
}

// ScatterAddRows returns a numRows×C matrix with out[idx[i]] += a[i] (used
// to aggregate edge messages at destination nodes).
func (t *Tape) ScatterAddRows(a *Var, idx []int, numRows int) *Var {
	if len(idx) != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: ScatterAddRows idx %d vs rows %d", len(idx), a.Value.Rows))
	}
	m := tensor.New(numRows, a.Value.Cols)
	for i, dst := range idx {
		row := m.Row(dst)
		for j, v := range a.Value.Row(i) {
			row[j] += v
		}
	}
	out := t.output(m, a)
	t.record(func() {
		if !out.requiresGrad || !a.requiresGrad {
			return
		}
		g := out.Grad()
		ag := a.Grad()
		for i, dst := range idx {
			src := g.Row(dst)
			row := ag.Row(i)
			for j, v := range src {
				row[j] += v
			}
		}
	})
	return out
}

// MulColBroadcast returns out[i] = a[i] * c[i][0], scaling each row of a by
// the corresponding entry of the column vector c (E×1).
func (t *Tape) MulColBroadcast(a, c *Var) *Var {
	if c.Value.Cols != 1 || c.Value.Rows != a.Value.Rows {
		panic(fmt.Sprintf("autodiff: MulColBroadcast %dx%d × %dx%d",
			a.Value.Rows, a.Value.Cols, c.Value.Rows, c.Value.Cols))
	}
	m := a.Value.Clone()
	for i := 0; i < m.Rows; i++ {
		f := c.Value.Data[i]
		row := m.Row(i)
		for j := range row {
			row[j] *= f
		}
	}
	out := t.output(m, a, c)
	t.record(func() {
		if !out.requiresGrad {
			return
		}
		g := out.Grad()
		if a.requiresGrad {
			ag := a.Grad()
			for i := 0; i < g.Rows; i++ {
				f := c.Value.Data[i]
				row := ag.Row(i)
				for j, v := range g.Row(i) {
					row[j] += float64(f * v)
				}
			}
		}
		if c.requiresGrad {
			cg := c.Grad()
			for i := 0; i < g.Rows; i++ {
				var acc float64
				arow := a.Value.Row(i)
				for j, v := range g.Row(i) {
					acc += float64(v * arow[j])
				}
				cg.Data[i] += acc
			}
		}
	})
	return out
}

// SegmentSoftmax normalizes the E×1 logits within each segment:
// out[e] = exp(x[e]) / Σ_{f in segment(e)} exp(x[f]). segments assigns each
// row a segment ID in [0, numSegments). Empty segments are fine. The usual
// max-subtraction keeps it numerically stable.
func (t *Tape) SegmentSoftmax(logits *Var, segments []int, numSegments int) *Var {
	if logits.Value.Cols != 1 || len(segments) != logits.Value.Rows {
		panic(fmt.Sprintf("autodiff: SegmentSoftmax %dx%d with %d segments",
			logits.Value.Rows, logits.Value.Cols, len(segments)))
	}
	maxes := make([]float64, numSegments)
	for i := range maxes {
		maxes[i] = math.Inf(-1)
	}
	for e, s := range segments {
		if v := logits.Value.Data[e]; v > maxes[s] {
			maxes[s] = v
		}
	}
	sums := make([]float64, numSegments)
	m := tensor.New(logits.Value.Rows, 1)
	for e, s := range segments {
		v := fp.Exp(logits.Value.Data[e] - maxes[s])
		m.Data[e] = v
		sums[s] += v
	}
	for e, s := range segments {
		if sums[s] > 0 {
			m.Data[e] /= sums[s]
		}
	}
	out := t.output(m, logits)
	t.record(func() {
		if !out.requiresGrad || !logits.requiresGrad {
			return
		}
		g := out.Grad()
		// dL/dx_e = α_e (g_e - Σ_f α_f g_f) within the segment.
		dots := make([]float64, numSegments)
		for e, s := range segments {
			dots[s] += float64(out.Value.Data[e] * g.Data[e])
		}
		lg := logits.Grad()
		for e, s := range segments {
			lg.Data[e] += float64(out.Value.Data[e] * (g.Data[e] - dots[s]))
		}
	})
	return out
}

// --- reductions and losses ---

// MeanRows returns the 1×C mean over rows.
func (t *Tape) MeanRows(a *Var) *Var {
	if a.Value.Rows == 0 {
		panic("autodiff: MeanRows of empty matrix")
	}
	m := tensor.New(1, a.Value.Cols)
	for i := 0; i < a.Value.Rows; i++ {
		for j, v := range a.Value.Row(i) {
			m.Data[j] += v
		}
	}
	inv := 1 / float64(a.Value.Rows)
	m.ScaleInPlace(inv)
	out := t.output(m, a)
	t.record(func() {
		if !out.requiresGrad || !a.requiresGrad {
			return
		}
		g := out.Grad()
		ag := a.Grad()
		for i := 0; i < ag.Rows; i++ {
			row := ag.Row(i)
			for j := range row {
				row[j] += float64(g.Data[j] * inv)
			}
		}
	})
	return out
}

// Sum returns the 1×1 sum of all elements.
func (t *Tape) Sum(a *Var) *Var {
	out := t.output(tensor.Scalar(a.Value.Sum()), a)
	t.record(func() {
		if !out.requiresGrad || !a.requiresGrad {
			return
		}
		g := out.Grad().At(0, 0)
		ag := a.Grad()
		for i := range ag.Data {
			ag.Data[i] += g
		}
	})
	return out
}

// MSE returns the 1×1 mean squared error between pred and the constant
// target (same shape).
func (t *Tape) MSE(pred *Var, target *tensor.Matrix) *Var {
	if !pred.Value.SameShape(target) {
		panic(fmt.Sprintf("autodiff: MSE %dx%d vs %dx%d",
			pred.Value.Rows, pred.Value.Cols, target.Rows, target.Cols))
	}
	n := float64(len(target.Data))
	var acc float64
	for i, v := range pred.Value.Data {
		d := v - target.Data[i]
		acc += float64(d * d)
	}
	out := t.output(tensor.Scalar(acc/n), pred)
	t.record(func() {
		if !out.requiresGrad || !pred.requiresGrad {
			return
		}
		g := out.Grad().At(0, 0)
		pg := pred.Grad()
		for i, v := range pred.Value.Data {
			pg.Data[i] += g * 2 * (v - target.Data[i]) / n
		}
	})
	return out
}
