package gnn

import (
	"slices"

	"paragraph/internal/tensor"
)

// This file holds the engine's weight set: a snapshot of the model
// parameters plus the constants derived from them, built once per parameter
// state — not once per forward pass. Training mutates parameters in place
// (Adam steps, checkpoint loads), so the set is a copy, invalidated on
// every mutation the package performs (each mini-batch's Gradient, Train's
// epoch ends, Load) and rebuilt lazily on the next use. Code that mutates
// parameter values directly — tests, ablation tooling — must call
// InvalidateInference afterwards.

// layerWeights is one convolution's weights. pSrc[r] = W_r·aSrc_r and
// pDst[r] = W_r·aDst_r (length Hidden) are the precomputed attention
// projections: the tape scores an edge as (h·W_r)·a; the engine
// reassociates to h·(W_r·a), turning the per-node score into a single H-dot
// against these vectors — the H²-per-node projection cost disappears from
// the score path entirely.
type layerWeights struct {
	w     []*tensor.Matrix // per-relation projection H×H
	pSrc  [][]float64      // per-relation W_r·aSrc, length H
	pDst  [][]float64      // per-relation W_r·aDst, length H
	wCoef []float64        // per-relation edge-weight coefficient
	self  *tensor.Matrix   // H×H
	bias  []float64        // length H
	alpha float64
}

// weights is the full weight set the engine runs on, serving and training
// alike. It is immutable once built and shared by every concurrent forward
// pass.
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
}

// inferParams returns the current weight set, building it under the mutex
// on first use after an invalidation. The double-checked atomic load keeps
// the steady-state cost of a forward pass at one atomic read.
func (m *Model) inferParams() *weights {
	if p := m.inferP.Load(); p != nil {
		return p
	}
	m.inferMu.Lock()
	defer m.inferMu.Unlock()
	if p := m.inferP.Load(); p != nil {
		return p
	}
	p := buildWeights(m)
	m.inferP.Store(p)
	return p
}

// InvalidateInference discards the precomputed inference weights; the next
// Predict rebuilds them from the current parameter values. The package
// invalidates after its own parameter mutations (Train's optimizer steps,
// Load); call this after mutating parameter values directly.
func (m *Model) InvalidateInference() { m.inferP.Store(nil) }

// PrecomputeInference builds the derived inference weights eagerly, so the
// first request served by a freshly loaded model does not pay the build.
func (m *Model) PrecomputeInference() { m.inferParams() }

// projectAttention computes W·a for an H×H projection and an H×1 attention
// vector: the precomputed form of the engine's attention scores.
func projectAttention(w, a *tensor.Matrix) []float64 {
	out := make([]float64, w.Rows)
	for i := range out {
		out[i] = tensor.Dot(w.Row(i), a.Data)
	}
	return out
}

// buildWeights copies the current parameter values and derives the
// attention projections from them.
func buildWeights(m *Model) *weights {
	w := &weights{
		hidden:    m.cfg.Hidden,
		kindTab:   m.kindEmb.Table.Value.Clone(),
		subTab:    m.subEmb.Table.Value.Clone(),
		featVec:   slices.Clone(m.featVec.Value.Data),
		fc1W:      m.fc1.W.Value.Clone(),
		fc1B:      m.fc1.B.Value.Clone(),
		fc2W:      m.fc2.W.Value.Clone(),
		fc2B:      m.fc2.B.Value.Clone(),
		featW:     m.featFC.W.Value.Clone(),
		featB:     m.featFC.B.Value.Clone(),
		outW:      m.out.W.Value.Clone(),
		outB:      m.out.B.Value.Clone(),
		noWeights: m.cfg.DisableEdgeWeights,
	}
	for _, l := range m.layers {
		lw := layerWeights{
			self:  l.self.Value.Clone(),
			bias:  slices.Clone(l.bias.Value.Data),
			alpha: l.alpha,
		}
		for r := range l.w {
			lw.w = append(lw.w, l.w[r].Value.Clone())
			lw.pSrc = append(lw.pSrc, projectAttention(l.w[r].Value, l.aSrc[r].Value))
			lw.pDst = append(lw.pDst, projectAttention(l.w[r].Value, l.aDst[r].Value))
			lw.wCoef = append(lw.wCoef, l.wCoef[r].Value.Data[0])
		}
		w.layers = append(w.layers, lw)
	}
	return w
}
