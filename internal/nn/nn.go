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

// Row is Apply written out for one input row, the form the models' own
// forward passes run: z = x·W + b into z, one element per column of W. Each
// output sums its products from +0 in input order, zero inputs included,
// then adds its bias, on tensor's tiled kernel, so it has Apply's bits
// wherever the tape's skip of a zero input would have added a ±0 product
// (every finite W). It allocates nothing.
func (l *Linear) Row(x, z []float64) {
	in := tensor.Matrix{Rows: 1, Cols: len(x), Data: x}
	out := tensor.Matrix{Rows: 1, Cols: len(z), Data: z}
	tensor.MatMulRowsInto(&in, nil, l.W.Value, &out, nil, false)
	for j, b := range l.B.Value.Data {
		z[j] += b
	}
}

// Back is Row's backward: given x and dz = dL/dz, it adds xᵀ·dz and dz
// into grad, the layer's block of a flat gradient (W's elements, then b's,
// as Params lists them), and, unless dx is nil, sets dx = dz·Wᵀ.
func (l *Linear) Back(x, dz, grad, dx []float64) {
	w := l.W.Value
	gW, gB := grad[:len(w.Data)], grad[len(w.Data):len(w.Data)+len(dz)]
	for k, xv := range x {
		row := gW[k*len(dz) : (k+1)*len(dz)]
		for j, g := range dz {
			row[j] += float64(xv * g)
		}
	}
	for j, g := range dz {
		gB[j] += g
	}
	for k := range dx {
		dx[k] = tensor.Dot(w.Row(k), dz)
	}
}

// ReLU sets h = max(z, 0) element by element; h may be z. It is the tape's
// ReLU but for the sign of a zero output, which no product or sum after it
// can tell.
func ReLU(z, h []float64) {
	h = h[:len(z)]
	for j, v := range z {
		h[j] = max(v, 0)
	}
}

// ReLUBack turns d = dL/dh into dL/dz for h = ReLU(z): it keeps d where
// z ≥ 0, z == 0 included, as the tape's ReLU passes its gradient, and sets
// it to +0 elsewhere.
func ReLUBack(z, d []float64) {
	d = d[:len(z)]
	for j, v := range z {
		if v < 0 {
			d[j] = 0
		}
	}
}

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
// and zeroes them. The update is per element, so it runs over parameter
// ranges on GOMAXPROCS goroutines (forEachRange) with every element's bits
// as a sequential pass would give them.
func (a *Adam) Step(params []*Parameter) {
	a.step++
	c1 := 1 - fp.Pow(a.Beta1, a.step)
	c2 := 1 - fp.Pow(a.Beta2, a.step)
	for _, p := range params {
		if _, ok := a.m[p]; !ok {
			a.m[p] = tensor.New(p.Value.Rows, p.Value.Cols)
			a.v[p] = tensor.New(p.Value.Rows, p.Value.Cols)
		}
	}
	forEachRange(params, func(k, lo, hi, _ int) {
		p := params[k]
		grad, val := p.Grad.Data[lo:hi], p.Value.Data[lo:hi]
		m, v := a.m[p].Data[lo:hi], a.v[p].Data[lo:hi]
		for i, g := range grad {
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mh := m[i] / c1
			vh := v[i] / c2
			val[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		clear(grad)
	})
}
