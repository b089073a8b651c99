package gnn

import (
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// This file holds the engine's weight set: the model's parameters, read
// where they live, plus the values derived from them. It is built only
// where parameters get new storage — NewModel, and Load, since
// nn.LoadParams replaces each Parameter.Value — and every matrix in it
// aliases its parameter's value. It owns only the derived values, in
// storage allocated once, and refresh recomputes them in place after the
// parameters change: Gradient at each mini-batch (after the previous Adam
// step) and Train's validation after each epoch's last step. Parameters
// change only through Train and Load, never while the same model predicts,
// so a set built before the model is shared needs no lock.

// layerWeights is one convolution's weights. pSrc = W_Ref·aSrc and
// pDst = W_Ref·aDst (length Hidden) are the precomputed attention
// projections: the tape scores an edge as (h·W_Ref)·a; the engine
// reassociates to h·(W_Ref·a), turning the per-node score into a single
// H-dot against these vectors — the H²-per-node projection cost disappears
// from the score path entirely.
type layerWeights struct {
	w          []*tensor.Matrix // per-relation projection H×H
	aSrc, aDst []float64        // Ref's attention vectors, length H (nil without Ref)
	wCoef      []float64        // Child's edge-weight coefficient, one element
	self       *tensor.Matrix   // H×H
	bias       []float64        // length H
	alpha      float64

	// Derived by refresh.
	pSrc, pDst []float64        // W_Ref·aSrc and W_Ref·aDst, length H
	selfT      *tensor.Matrix   // self projection transposed, for the backward
	wT         []*tensor.Matrix // per-relation projection transposed, likewise

	at layerAt
}

// weights is the full weight set the engine runs on, serving and training
// alike, shared by every concurrent forward pass.
type weights struct {
	hidden  int
	kindTab *tensor.Matrix
	subTab  *tensor.Matrix
	featVec []float64

	layers []layerWeights

	fc1W, fc1B   *tensor.Matrix
	fc2W, fc2B   *tensor.Matrix
	featW, featB *tensor.Matrix
	outW, outB   *tensor.Matrix

	at modelAt
}

// modelAt and layerAt are the offsets of the parameters in a flat gradient
// (nn.Gradient's layout: Params order).
type (
	modelAt struct {
		kind, sub, featVec     int
		fc1W, fc1B, fc2W, fc2B int
		featW, featB           int
		outW, outB             int
	}
	layerAt struct {
		w                             []int
		aSrc, aDst, wCoef, self, bias int
	}
)

// buildWeights points the model's weight set at its current parameter
// storage, allocates the derived values and computes them.
func (m *Model) buildWeights() {
	at := map[*nn.Parameter]int{}
	off := 0
	for _, p := range m.params {
		at[p] = off
		off += len(p.Value.Data)
	}
	h := m.cfg.Hidden
	w := &weights{
		hidden:  h,
		kindTab: m.kindEmb.Table.Value,
		subTab:  m.subEmb.Table.Value,
		featVec: m.featVec.Value.Data,
		fc1W:    m.fc1.W.Value,
		fc1B:    m.fc1.B.Value,
		fc2W:    m.fc2.W.Value,
		fc2B:    m.fc2.B.Value,
		featW:   m.featFC.W.Value,
		featB:   m.featFC.B.Value,
		outW:    m.out.W.Value,
		outB:    m.out.B.Value,
		at: modelAt{
			kind: at[m.kindEmb.Table], sub: at[m.subEmb.Table], featVec: at[m.featVec],
			fc1W: at[m.fc1.W], fc1B: at[m.fc1.B], fc2W: at[m.fc2.W], fc2B: at[m.fc2.B],
			featW: at[m.featFC.W], featB: at[m.featFC.B], outW: at[m.out.W], outB: at[m.out.B],
		},
	}
	for _, l := range m.layers {
		lw := layerWeights{
			wCoef: l.wCoef.Value.Data,
			self:  l.self.Value,
			bias:  l.bias.Value.Data,
			alpha: l.alpha,
			selfT: tensor.New(h, h),
			at:    layerAt{wCoef: at[l.wCoef], self: at[l.self], bias: at[l.bias]},
		}
		if l.aSrc != nil {
			lw.aSrc, lw.aDst = l.aSrc.Value.Data, l.aDst.Value.Data
			lw.pSrc, lw.pDst = make([]float64, h), make([]float64, h)
			lw.at.aSrc, lw.at.aDst = at[l.aSrc], at[l.aDst]
		}
		for r := range l.w {
			lw.w = append(lw.w, l.w[r].Value)
			lw.wT = append(lw.wT, tensor.New(h, h))
			lw.at.w = append(lw.at.w, at[l.w[r]])
		}
		w.layers = append(w.layers, lw)
	}
	m.w = w
	m.refresh()
}

// refresh recomputes the weight set's derived values from the current
// parameter values, in place and without allocating.
func (m *Model) refresh() {
	for i, l := range m.layers {
		lw := &m.w.layers[i]
		tensor.TransposeInto(l.self.Value, lw.selfT)
		for r := range l.w {
			tensor.TransposeInto(l.w[r].Value, lw.wT[r])
		}
		if l.aSrc != nil {
			projectAttention(lw.pSrc, l.w[ref].Value, l.aSrc.Value)
			projectAttention(lw.pDst, l.w[ref].Value, l.aDst.Value)
		}
	}
}

// projectAttention computes out = W·a for an H×H projection and an H×1
// attention vector: the precomputed form of the engine's attention scores.
func projectAttention(out []float64, w, a *tensor.Matrix) {
	for i := range out {
		out[i] = tensor.Dot(w.Row(i), a.Data)
	}
}
