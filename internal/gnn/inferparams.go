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

// layerWeights is one convolution's weights. pSrc[r] = W_r·aSrc_r and
// pDst[r] = W_r·aDst_r (length Hidden) are the precomputed attention
// projections: the tape scores an edge as (h·W_r)·a; the engine
// reassociates to h·(W_r·a), turning the per-node score into a single H-dot
// against these vectors — the H²-per-node projection cost disappears from
// the score path entirely.
type layerWeights struct {
	w          []*tensor.Matrix // per-relation projection H×H
	aSrc, aDst [][]float64      // per-relation attention vectors, length H
	self       *tensor.Matrix   // H×H
	bias       []float64        // length H
	alpha      float64

	// Derived by refresh.
	pSrc  [][]float64      // per-relation W_r·aSrc, length H
	pDst  [][]float64      // per-relation W_r·aDst, length H
	wCoef []float64        // per-relation edge-weight coefficient
	selfT *tensor.Matrix   // self projection transposed, for the backward
	wT    []*tensor.Matrix // per-relation projection transposed, likewise

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

	noWeights bool
	at        modelAt
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
		w, aSrc, aDst, wCoef []int
		self, bias           int
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
		hidden:    h,
		kindTab:   m.kindEmb.Table.Value,
		subTab:    m.subEmb.Table.Value,
		featVec:   m.featVec.Value.Data,
		fc1W:      m.fc1.W.Value,
		fc1B:      m.fc1.B.Value,
		fc2W:      m.fc2.W.Value,
		fc2B:      m.fc2.B.Value,
		featW:     m.featFC.W.Value,
		featB:     m.featFC.B.Value,
		outW:      m.out.W.Value,
		outB:      m.out.B.Value,
		noWeights: m.cfg.DisableEdgeWeights,
		at: modelAt{
			kind: at[m.kindEmb.Table], sub: at[m.subEmb.Table], featVec: at[m.featVec],
			fc1W: at[m.fc1.W], fc1B: at[m.fc1.B], fc2W: at[m.fc2.W], fc2B: at[m.fc2.B],
			featW: at[m.featFC.W], featB: at[m.featFC.B], outW: at[m.out.W], outB: at[m.out.B],
		},
	}
	for _, l := range m.layers {
		lw := layerWeights{
			self:  l.self.Value,
			bias:  l.bias.Value.Data,
			alpha: l.alpha,
			selfT: tensor.New(h, h),
			wCoef: make([]float64, len(l.w)),
			at:    layerAt{self: at[l.self], bias: at[l.bias]},
		}
		for r := range l.w {
			lw.w = append(lw.w, l.w[r].Value)
			lw.aSrc = append(lw.aSrc, l.aSrc[r].Value.Data)
			lw.aDst = append(lw.aDst, l.aDst[r].Value.Data)
			lw.pSrc = append(lw.pSrc, make([]float64, h))
			lw.pDst = append(lw.pDst, make([]float64, h))
			lw.wT = append(lw.wT, tensor.New(h, h))
			lw.at.w = append(lw.at.w, at[l.w[r]])
			lw.at.aSrc = append(lw.at.aSrc, at[l.aSrc[r]])
			lw.at.aDst = append(lw.at.aDst, at[l.aDst[r]])
			lw.at.wCoef = append(lw.at.wCoef, at[l.wCoef[r]])
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
			projectAttention(lw.pSrc[r], l.w[r].Value, l.aSrc[r].Value)
			projectAttention(lw.pDst[r], l.w[r].Value, l.aDst[r].Value)
			lw.wCoef[r] = l.wCoef[r].Value.Data[0]
			tensor.TransposeInto(l.w[r].Value, lw.wT[r])
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
