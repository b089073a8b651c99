package gnn

import (
	"math"
	"slices"

	"paragraph/internal/fp"
	"paragraph/internal/nn"
	"paragraph/internal/tensor"
)

// This file is training's gradient: the engine's forward pass (infer.go)
// run with the ReLU masks recorded, then a hand-derived backward
// over the state the engine retains in its slot — h⁰…h^L, each relation's
// projected source rows q and source scores — and the head activations
// left in the workspace. The autodiff tape (Model.Forward) is its oracle:
// TestTrainGradientsMatchTape holds every parameter's gradient within 1e-9
// of the tape's, and a central finite-difference check guards both.
//
// The backward walks each relation's destination runs as the forward does.
// Per run it recomputes α from the retained scores and the destination
// score h_d·p_dst, forms dq, dα and the coefficient's gradient through the
// static-weight factor (1 + c·w̃), and backpropagates through the segment
// softmax and the logits' LeakyReLU. The engine scores a node as
// h·(W_r·a) where the tape scores (h·W_r)·a; the backward undoes that
// reassociation once per relation, not per node: with
// g_pSrc = Σ_i ds_i·h_i and g_pDst = Σ_d ds_d·h_d accumulated as H-vectors,
// dW_r = h_srcᵀ·dQ + g_pSrc·aSrcᵀ + g_pDst·aDstᵀ (the product over the
// relation's source rows only), daSrc = W_rᵀ·g_pSrc and daDst = W_rᵀ·g_pDst.

// trainWeights is one mini-batch's weight set: the engine's, at the
// parameter values the previous step left, plus what only the backward
// reads.
type trainWeights struct {
	w      *weights
	layers []trainLayer
	at     modelAt
}

// trainLayer is one convolution's backward-only weights: the projections
// transposed, the attention vectors, and where its parameters sit in a
// gradient.
type trainLayer struct {
	selfT      *tensor.Matrix
	wT         []*tensor.Matrix
	aSrc, aDst [][]float64
	at         layerAt
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

// buildTrainWeights assembles one mini-batch's weights from the model's
// engine weight set, which the caller has rebuilt at the current parameter
// values.
func buildTrainWeights(m *Model) *trainWeights {
	at := map[*nn.Parameter]int{}
	off := 0
	for _, p := range m.params {
		at[p] = off
		off += len(p.Value.Data)
	}
	tw := &trainWeights{
		w: m.inferParams(),
		at: modelAt{
			kind: at[m.kindEmb.Table], sub: at[m.subEmb.Table], featVec: at[m.featVec],
			fc1W: at[m.fc1.W], fc1B: at[m.fc1.B], fc2W: at[m.fc2.W], fc2B: at[m.fc2.B],
			featW: at[m.featFC.W], featB: at[m.featFC.B], outW: at[m.out.W], outB: at[m.out.B],
		},
	}
	for _, l := range m.layers {
		tl := trainLayer{selfT: tensor.Transpose(l.self.Value), at: layerAt{self: at[l.self], bias: at[l.bias]}}
		for r := range l.w {
			tl.wT = append(tl.wT, tensor.Transpose(l.w[r].Value))
			tl.aSrc = append(tl.aSrc, slices.Clone(l.aSrc[r].Value.Data))
			tl.aDst = append(tl.aDst, slices.Clone(l.aDst[r].Value.Data))
			tl.at.w = append(tl.at.w, at[l.w[r]])
			tl.at.aSrc = append(tl.at.aSrc, at[l.aSrc[r]])
			tl.at.aDst = append(tl.at.aDst, at[l.aDst[r]])
			tl.at.wCoef = append(tl.at.wCoef, at[l.wCoef[r]])
		}
		tw.layers = append(tw.layers, tl)
	}
	return tw
}

// Gradient returns the per-example loss gradient of samples at the model's
// current parameter values, in nn.Train's form: the squared error against
// each sample's scaled target, differentiated with respect to every
// parameter. Train takes one per mini-batch; parameter changes made after
// the call are not seen. Workspaces are pooled on the model, so in steady
// state an example's gradient allocates nothing.
func (m *Model) Gradient(samples []*Sample) nn.Gradient {
	// The optimizer mutated parameter values in place since the weight set
	// was built: rebuild it, for this batch and for any Predict after it.
	m.InvalidateInference()
	tw := buildTrainWeights(m)
	return func(i int, grad []float64) float64 {
		gw, _ := m.gradPool.Get().(*gradWS)
		if gw == nil {
			gw = new(gradWS)
		}
		defer m.gradPool.Put(gw)
		return tw.gradient(gw, samples[i], grad)
	}
}

// gradWS is one training worker's state: an engine workspace whose passes
// record the ReLU masks, and the backward's scratch.
type gradWS struct {
	workspace
	dh, dIn tensor.Matrix // N×H: dL/d(a layer's output), then dL/d(its input)
	dq      tensor.Matrix // a relation's source rows × H: dL/dq
	opT     tensor.Matrix // a transposed operand
	tmp     tensor.Matrix // a product, before it is added in
	dsSrc   []float64     // per source row of a relation: dL/d(its score)
	dAlpha  []float64     // one run's dL/dα
	vec     []float64     // the head's, then one relation's, H-vectors
}

// gradient runs s forward through the engine and back, adding the squared
// error's gradient into grad (zeroed, Params order), and returns the
// squared error.
func (tw *trainWeights) gradient(gw *gradWS, s *Sample, grad []float64) float64 {
	w, ws := tw.w, &gw.workspace
	st := &ws.slots[0]
	st.buf = resize(st.buf, ws.shape(w, s.G))
	ws.pass = resize(ws.pass, len(w.layers)*ws.n*ws.hdim+2*ws.hdim+w.featB.Cols)
	gw.vec = resize(gw.vec, 3*ws.hdim+w.featB.Cols)
	d := w.forward(ws, st, nil, s) - s.Target

	gw.head(tw, 2*d, grad)
	for li := len(w.layers) - 1; li >= 0; li-- {
		gw.layer(tw, st, li, grad)
	}
	gw.embeddings(tw, s.G, grad)
	// Nothing of the call's graph may outlive it in the pooled workspace.
	ws.plan, st.g = nil, nil
	return d * d
}

// head backpropagates dp = dL/dprediction through the regression head, the
// two fully connected layers and the feature branch, leaving dL/dh^L in
// gw.dh.
func (gw *gradWS) head(tw *trainWeights, dp float64, grad []float64) {
	w, at, ws := tw.w, tw.at, &gw.workspace
	hd, fh := ws.hdim, w.featB.Cols
	pass := ws.pass[len(w.layers)*ws.n*hd:]
	dEmb2, dFeat := gw.vec[:hd], gw.vec[hd:hd+fh]
	dEmb, dPooled := gw.vec[hd+fh:2*hd+fh], gw.vec[2*hd+fh:3*hd+fh]

	// out = [emb2 | featEmb]·outW + outB; each half came through a ReLU.
	linearGrad(ws.concat.Data, []float64{dp}, grad[at.outW:], grad[at.outB:])
	for j := range dEmb2 {
		dEmb2[j] = masked(pass[hd+j], dp*w.outW.Data[j])
	}
	for j := range dFeat {
		dFeat[j] = masked(pass[2*hd+j], dp*w.outW.Data[hd+j])
	}
	linearGrad(ws.featIn.Data, dFeat, grad[at.featW:], grad[at.featB:])
	linearGrad(ws.emb.Data, dEmb2, grad[at.fc2W:], grad[at.fc2B:])
	backRow(w.fc2W, dEmb2, pass[:hd], dEmb)
	linearGrad(ws.pooled.Data, dEmb, grad[at.fc1W:], grad[at.fc1B:])
	backRow(w.fc1W, dEmb, nil, dPooled)

	// pooled = mean over rows of h^L.
	reshape(&gw.dh, ws.n, hd)
	inv := 1 / float64(ws.n)
	for i := 0; i < ws.n; i++ {
		row := gw.dh.Row(i)
		for j, v := range dPooled {
			row[j] = v * inv
		}
	}
}

// masked is g where the ReLU passed its gradient, else zero.
func masked(pass bool, g float64) float64 {
	if pass {
		return g
	}
	return 0
}

// linearGrad adds the weight and bias gradients of z = x·W + b for one row:
// xᵀ·dz into gW and dz into gB.
func linearGrad(x, dz, gW, gB []float64) {
	for k, xv := range x {
		if xv == 0 {
			continue
		}
		row := gW[k*len(dz) : (k+1)*len(dz)]
		for j, g := range dz {
			row[j] += float64(xv * g)
		}
	}
	for j, g := range dz {
		gB[j] += g
	}
}

// backRow sets dx = dz·Wᵀ, zeroed where pass (when given) says the ReLU
// that produced x blocked its gradient.
func backRow(w *tensor.Matrix, dz []float64, pass []bool, dx []float64) {
	for i := range dx {
		if pass != nil && !pass[i] {
			dx[i] = 0
			continue
		}
		dx[i] = tensor.Dot(w.Row(i), dz)
	}
}

// addATB adds a[rows]ᵀ·b into dst (a.Cols × b.Cols, row-major) through the
// tiled kernel; nil rows means every row of a.
func (gw *gradWS) addATB(a *tensor.Matrix, rows []int, b *tensor.Matrix, dst []float64) {
	m := b.Rows
	reshape(&gw.opT, a.Cols, m)
	for k := 0; k < m; k++ {
		i := k
		if rows != nil {
			i = rows[k]
		}
		for c, v := range a.Row(i) {
			gw.opT.Data[c*m+k] = v
		}
	}
	tensor.MatMulInto(&gw.opT, b, &gw.tmp)
	for j, v := range gw.tmp.Data {
		dst[j] += v
	}
}

// axpy adds a·x into y's leading len(x) elements.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	for j, v := range x {
		y[j] += float64(a * v)
	}
}

// layer backpropagates convolution li: on entry gw.dh holds dL/dh^{li+1},
// on return dL/dh^li, and the layer's parameter gradients are added into
// grad.
func (gw *gradWS) layer(tw *trainWeights, st *slot, li int, grad []float64) {
	ws := &gw.workspace
	l, tl := &tw.w.layers[li], &tw.layers[li]
	n, hd := ws.n, ws.hdim
	in := ws.h(st, li)

	// Through the ReLU, then the self projection and bias, whose input
	// gradient dOut·W_selfᵀ starts dL/dh^li.
	dOut := &gw.dh
	for i, ok := range ws.pass[li*n*hd : (li+1)*n*hd] {
		if !ok {
			dOut.Data[i] = 0
		}
	}
	gw.addATB(&in, nil, dOut, grad[tl.at.self:])
	bias := grad[tl.at.bias : tl.at.bias+hd]
	for i := 0; i < n; i++ {
		for j, v := range dOut.Row(i) {
			bias[j] += v
		}
	}
	tensor.MatMulInto(dOut, tl.selfT, &gw.dIn)

	for r := range min(len(st.g.Rels), len(l.w)) {
		if len(ws.plan.rels[r].edge) > 0 {
			gw.relation(tw, st, li, r, grad)
		}
	}
	gw.dh, gw.dIn = gw.dIn, gw.dh
}

// relation backpropagates relation r's messages at layer li from dL/dOut
// (gw.dh) into dL/dh^li (gw.dIn) and the relation's parameter gradients.
func (gw *gradWS) relation(tw *trainWeights, st *slot, li, r int, grad []float64) {
	ws, w := &gw.workspace, tw.w
	l, tl := &w.layers[li], &tw.layers[li]
	rp, hd := &ws.plan.rels[r], ws.hdim
	in, dOut, dIn := ws.h(st, li), &gw.dh, &gw.dIn
	q, score := ws.q(st, li, r)

	reshape(&gw.dq, q.Rows, hd)
	clear(gw.dq.Data)
	gw.dsSrc = resize(gw.dsSrc, q.Rows)
	clear(gw.dsSrc)
	gw.dAlpha = resize(gw.dAlpha, len(ws.logits))
	gPSrc, gPDst := gw.vec[:hd], gw.vec[hd:2*hd]
	clear(gPSrc)
	clear(gPDst)

	wscale := st.g.weightScale()
	logW := st.g.Rels[r].LogW
	pDst, c := l.pDst[r], l.wCoef[r]
	var dc float64
	for t, d := range rp.runDst {
		lo, hi := rp.runStart[t], rp.runStart[t+1]
		// α exactly as the forward computed it.
		ds := tensor.Dot(in.Row(d), pDst)
		alpha := ws.logits[:hi-lo]
		mx := math.Inf(-1)
		for i := lo; i < hi; i++ {
			v := score[rp.edgeSrcIdx[i]] + ds
			if v < 0 {
				v = l.alpha * v
			}
			alpha[i-lo] = v
			if v > mx {
				mx = v
			}
		}
		var sum float64
		for i, v := range alpha {
			alpha[i] = fp.Exp(v - mx)
			sum += alpha[i]
		}
		inv := 1.0
		if sum > 0 {
			inv = 1 / sum
		}
		// The message α·k·q with k = 1 + c·w̃: dq += α·k·dOut_d, dα = k·(dOut_d·q),
		// dc += w̃·α·(dOut_d·q).
		dRow, dAlpha := dOut.Row(d), gw.dAlpha[:hi-lo]
		var dot float64 // Σ α·dα over the segment
		for i := lo; i < hi; i++ {
			a, k, wt := alpha[i-lo]*inv, 1.0, 0.0
			if !w.noWeights {
				wt = logW[rp.edge[i]] / wscale
				k = float64(wt*c) + 1
			}
			si := rp.edgeSrcIdx[i]
			dF := tensor.Dot(dRow, q.Row(si))
			axpy(gw.dq.Row(si), a*k, dRow)
			dAlpha[i-lo] = k * dF
			dc += float64(wt * a * dF)
			dot += float64(a * dAlpha[i-lo])
		}
		// Segment softmax, then the logits' LeakyReLU, into the two scores.
		var dsDst float64
		for i := lo; i < hi; i++ {
			si := rp.edgeSrcIdx[i]
			dz := alpha[i-lo] * inv * (dAlpha[i-lo] - dot)
			if score[si]+ds < 0 {
				dz *= l.alpha
			}
			gw.dsSrc[si] += dz
			dsDst += dz
		}
		axpy(gPDst, dsDst, in.Row(d))
		axpy(dIn.Row(d), dsDst, pDst)
	}
	if !w.noWeights {
		grad[tl.at.wCoef[r]] += dc
	}
	for si, node := range rp.srcList {
		if ds := gw.dsSrc[si]; ds != 0 {
			axpy(gPSrc, ds, in.Row(node))
			axpy(dIn.Row(node), ds, l.pSrc[r])
		}
	}

	// dW_r = h_srcᵀ·dQ + g_pSrc·aSrcᵀ + g_pDst·aDstᵀ; da = W_rᵀ·g_p.
	gW := grad[tl.at.w[r] : tl.at.w[r]+hd*hd]
	gw.addATB(&in, rp.srcList, &gw.dq, gW)
	aSrc, aDst := tl.aSrc[r], tl.aDst[r]
	gASrc, gADst := grad[tl.at.aSrc[r]:tl.at.aSrc[r]+hd], grad[tl.at.aDst[r]:tl.at.aDst[r]+hd]
	for i := 0; i < hd; i++ {
		row := gW[i*hd : (i+1)*hd]
		axpy(row, gPSrc[i], aSrc)
		axpy(row, gPDst[i], aDst)
		wRow := l.w[r].Row(i)
		axpy(gASrc, gPSrc[i], wRow)
		axpy(gADst, gPDst[i], wRow)
	}
	// dh_src += dQ·W_rᵀ.
	tensor.MatMulInto(&gw.dq, tl.wT[r], &gw.tmp)
	for si, node := range rp.srcList {
		row := dIn.Row(node)
		for j, v := range gw.tmp.Row(si) {
			row[j] += v
		}
	}
}

// embeddings backpropagates dL/dh⁰ (gw.dh) into the kind and sub-kind
// embedding rows and the scalar feature's projection featVec.
func (gw *gradWS) embeddings(tw *trainWeights, g *Graph, grad []float64) {
	hd, at := gw.hdim, tw.at
	featVec := grad[at.featVec : at.featVec+hd]
	for i := 0; i < g.NumNodes; i++ {
		row := gw.dh.Row(i)
		axpy(grad[at.kind+g.Kinds[i]*hd:], 1, row)
		axpy(grad[at.sub+g.SubKinds[i]*hd:], 1, row)
		if f := g.Feats.Data[i]; f != 0 {
			axpy(featVec, f, row)
		}
	}
}
