package gnn

import (
	"paragraph/internal/tensor"
)

// This file holds the engine's weight set: the model parameters plus the
// constants derived from them, converted once per checkpoint — not once per
// forward pass — to the element width the engine runs in. Training mutates
// parameters in place (Adam steps, checkpoint loads), so the converted set
// is invalidated on every mutation the package performs (Train's optimizer
// steps, Load) and rebuilt lazily on the next Predict. Code that mutates
// parameter values directly — tests, ablation tooling — must call
// InvalidateInference afterwards.

// layerWeights is one convolution's weights in width F. pSrc[r] = W_r·aSrc_r
// and pDst[r] = W_r·aDst_r (length Hidden) are the precomputed attention
// projections: the tape scores an edge as (h·W_r)·a; the engine
// reassociates to h·(W_r·a), turning the per-node score into a single H-dot
// against these vectors — the H²-per-node projection cost disappears from
// the score path entirely.
type layerWeights[F tensor.Float] struct {
	w     []*tensor.Dense[F] // per-relation projection H×H
	pSrc  [][]F              // per-relation W_r·aSrc, length H
	pDst  [][]F              // per-relation W_r·aDst, length H
	wCoef []F                // per-relation edge-weight coefficient
	self  *tensor.Dense[F]   // H×H
	bias  []F                // length H
	alpha F
}

// weights is the full inference weight set in width F, converted from the
// float64 parameters at build time. Derived vectors (pSrc/pDst) are computed
// in float64 first and rounded once, so conversion error does not compound
// through the precomputation. It is immutable once built and shared by
// every concurrent forward pass.
type weights[F tensor.Float] struct {
	hidden  int
	kindTab *tensor.Dense[F]
	subTab  *tensor.Dense[F]
	featVec []F

	layers []layerWeights[F]

	fc1W, fc1B   *tensor.Dense[F]
	fc2W, fc2B   *tensor.Dense[F]
	featW, featB *tensor.Dense[F]
	outW, outB   *tensor.Dense[F]

	noWeights bool
}

// inferModel is the engine's derived view of the model: the weight set in
// the one width the model currently serves (the other field is nil),
// published through an atomic pointer.
type inferModel struct {
	f64 *weights[float64]
	f32 *weights[float32]
}

// inferParams returns the current derived weights, building them under the
// mutex on first use after an invalidation. The double-checked atomic load
// keeps the steady-state cost of a forward pass at one atomic read.
func (m *Model) inferParams() *inferModel {
	if p := m.inferP.Load(); p != nil {
		return p
	}
	m.inferMu.Lock()
	defer m.inferMu.Unlock()
	if p := m.inferP.Load(); p != nil {
		return p
	}
	p := &inferModel{}
	if m.f32Mode.Load() {
		p.f32 = buildWeights[float32](m)
	} else {
		p.f64 = buildWeights[float64](m)
	}
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

// SetFloat32Inference switches the inference engine between float64
// arithmetic (the default, ≤1e-9 relative error against the tape) and
// float32 (≤1e-4, roughly half the memory traffic). Training (which builds
// its own weight set per mini-batch) and the tape path are always float64;
// the switch only affects Predict/PredictBatch.
func (m *Model) SetFloat32Inference(on bool) {
	if m.f32Mode.Swap(on) != on {
		m.InvalidateInference()
	}
}

// Float32Inference reports whether the engine serves the float32 path.
func (m *Model) Float32Inference() bool { return m.f32Mode.Load() }

// projectAttention computes W·a for an H×H projection and an H×1 attention
// vector: the precomputed form of the engine's attention scores.
func projectAttention(w, a *tensor.Matrix) []float64 {
	out := make([]float64, w.Rows)
	for i := range out {
		out[i] = tensor.Dot(w.Row(i), a.Data)
	}
	return out
}

// buildWeights converts the current parameter values, and the attention
// projections derived from them, to width F.
func buildWeights[F tensor.Float](m *Model) *weights[F] {
	w := &weights[F]{
		hidden:    m.cfg.Hidden,
		kindTab:   tensor.Convert[F](m.kindEmb.Table.Value),
		subTab:    tensor.Convert[F](m.subEmb.Table.Value),
		featVec:   tensor.ConvertSlice[F](m.featVec.Value.Data),
		fc1W:      tensor.Convert[F](m.fc1.W.Value),
		fc1B:      tensor.Convert[F](m.fc1.B.Value),
		fc2W:      tensor.Convert[F](m.fc2.W.Value),
		fc2B:      tensor.Convert[F](m.fc2.B.Value),
		featW:     tensor.Convert[F](m.featFC.W.Value),
		featB:     tensor.Convert[F](m.featFC.B.Value),
		outW:      tensor.Convert[F](m.out.W.Value),
		outB:      tensor.Convert[F](m.out.B.Value),
		noWeights: m.cfg.DisableEdgeWeights,
	}
	for _, l := range m.layers {
		lw := layerWeights[F]{
			self:  tensor.Convert[F](l.self.Value),
			bias:  tensor.ConvertSlice[F](l.bias.Value.Data),
			alpha: F(l.alpha),
		}
		for r := range l.w {
			lw.w = append(lw.w, tensor.Convert[F](l.w[r].Value))
			lw.pSrc = append(lw.pSrc, tensor.ConvertSlice[F](projectAttention(l.w[r].Value, l.aSrc[r].Value)))
			lw.pDst = append(lw.pDst, tensor.ConvertSlice[F](projectAttention(l.w[r].Value, l.aDst[r].Value)))
			lw.wCoef = append(lw.wCoef, F(l.wCoef[r].Value.Data[0]))
		}
		w.layers = append(w.layers, lw)
	}
	return w
}
