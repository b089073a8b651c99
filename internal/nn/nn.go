// Package nn provides the neural-network building blocks: named
// parameters, gradient clipping, the Adam optimizer, and the one mini-batch
// training loop (Train, train.go) that the RGAT model and the COMPOFF
// baseline both fit with, each handing it a per-example Gradient computed
// by its own forward and backward. The tape-side blocks — a pass that binds
// parameters to an autodiff tape (Forward), and linear and embedding layers
// over it — are the reference the models' hand-derived gradients are
// checked against; the trainer itself never touches a tape. Together with
// package gnn it substitutes for the paper's PyTorch(-Geometric) stack.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"paragraph/internal/autodiff"
	"paragraph/internal/fp"
	"paragraph/internal/tensor"
)

// Parameter is a trainable matrix with an accumulated gradient.
type Parameter struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParameter allocates a zeroed parameter.
func NewParameter(name string, rows, cols int) *Parameter {
	return &Parameter{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
	}
}

// GlorotParameter allocates a Glorot-initialized parameter.
func GlorotParameter(name string, rows, cols int, rng *rand.Rand) *Parameter {
	p := NewParameter(name, rows, cols)
	p.Value.Glorot(rng)
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Parameter) ZeroGrad() { p.Grad.Zero() }

// Forward is one forward/backward pass on the tape: a tape plus the
// parameter→variable bindings made during it. Passes can run concurrently
// against shared (read-only) parameter values, one Forward per goroutine.
type Forward struct {
	Tape     *autodiff.Tape
	bindings map[*Parameter]*autodiff.Var
}

// NewForward returns a pass that records gradients.
func NewForward() *Forward {
	return &Forward{Tape: autodiff.NewTape(), bindings: map[*Parameter]*autodiff.Var{}}
}

// Bind returns the tape variable for a parameter, creating it on first use.
func (f *Forward) Bind(p *Parameter) *autodiff.Var {
	if v, ok := f.bindings[p]; ok {
		return v
	}
	v := f.Tape.Var(p.Value, true)
	f.bindings[p] = v
	return v
}

// Backward runs reverse-mode differentiation from loss.
func (f *Forward) Backward(loss *autodiff.Var) { f.Tape.Backward(loss) }

// Gradients returns the per-parameter gradients accumulated in this pass.
// Call after Backward.
func (f *Forward) Gradients() map[*Parameter]*tensor.Matrix {
	out := make(map[*Parameter]*tensor.Matrix, len(f.bindings))
	for p, v := range f.bindings {
		out[p] = v.Grad()
	}
	return out
}

// Accumulate adds this pass's gradients into the parameters' Grad buffers,
// scaled by s (typically 1/batchSize). Not safe for concurrent use on the
// same parameters; the trainer serializes merges.
func (f *Forward) Accumulate(s float64) {
	for p, v := range f.bindings {
		p.Grad.AxpyInPlace(s, v.Grad())
	}
}

// Linear is a dense layer y = xW + b.
type Linear struct {
	W *Parameter
	B *Parameter
}

// NewLinear returns a Glorot-initialized dense layer mapping in→out.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: GlorotParameter(name+".W", in, out, rng),
		B: NewParameter(name+".b", 1, out),
	}
}

// Apply computes x·W + b.
func (l *Linear) Apply(f *Forward, x *autodiff.Var) *autodiff.Var {
	return f.Tape.AddBias(f.Tape.MatMul(x, f.Bind(l.W)), f.Bind(l.B))
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Parameter { return []*Parameter{l.W, l.B} }

// Embedding is a lookup table mapping small integer ids to dense rows.
type Embedding struct {
	Table *Parameter
}

// NewEmbedding returns an embedding with num rows of dimension dim,
// initialized N(0, 0.1).
func NewEmbedding(name string, num, dim int, rng *rand.Rand) *Embedding {
	p := NewParameter(name+".emb", num, dim)
	p.Value.RandN(rng, 0.1)
	return &Embedding{Table: p}
}

// Apply gathers the rows for ids. Out-of-range ids panic (caller bug).
func (e *Embedding) Apply(f *Forward, ids []int) *autodiff.Var {
	for _, id := range ids {
		if id < 0 || id >= e.Table.Value.Rows {
			panic(fmt.Sprintf("nn: embedding id %d out of range [0,%d)", id, e.Table.Value.Rows))
		}
	}
	return f.Tape.GatherRows(f.Bind(e.Table), ids)
}

// Params returns the embedding's parameters.
func (e *Embedding) Params() []*Parameter { return []*Parameter{e.Table} }

// ZeroGrads clears all gradients.
func ZeroGrads(params []*Parameter) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales gradients so their global L2 norm is at most max.
// It returns the pre-clip norm.
func ClipGradNorm(params []*Parameter, max float64) float64 {
	var total float64
	for _, p := range params {
		n := p.Grad.Norm2()
		total += float64(n * n)
	}
	norm := math.Sqrt(total)
	if max > 0 && norm > max {
		scale := max / (norm + 1e-12)
		for _, p := range params {
			p.Grad.ScaleInPlace(scale)
		}
	}
	return norm
}

// Adam is the Adam optimizer (Kingma & Ba), the paper's optimizer choice.
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64

	step int
	m    map[*Parameter]*tensor.Matrix
	v    map[*Parameter]*tensor.Matrix
}

// NewAdam returns Adam with the standard betas and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:    lr,
		Beta1: 0.9,
		Beta2: 0.999,
		Eps:   1e-8,
		m:     map[*Parameter]*tensor.Matrix{},
		v:     map[*Parameter]*tensor.Matrix{},
	}
}

// Step applies one Adam update from the parameters' accumulated gradients
// and zeroes them.
func (a *Adam) Step(params []*Parameter) {
	a.step++
	c1 := 1 - fp.Pow(a.Beta1, a.step)
	c2 := 1 - fp.Pow(a.Beta2, a.step)
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p] = m
			a.v[p] = tensor.New(p.Value.Rows, p.Value.Cols)
		}
		v := a.v[p]
		for i, g := range p.Grad.Data {
			m.Data[i] = float64(a.Beta1*m.Data[i]) + float64((1-a.Beta1)*g)
			v.Data[i] = float64(a.Beta2*v.Data[i]) + float64((1-a.Beta2)*g*g)
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.Value.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.ZeroGrad()
	}
}
