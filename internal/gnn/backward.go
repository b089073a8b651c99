package gnn

import (
	"math"

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
// Off Ref, and in a one-edge Ref run, α = 1 (see layer in infer.go): an
// edge adds only dq and, on Child where w̃ ≠ 0, the coefficient's gradient
// dc through the static-weight factor (1 + c·w̃). Per multi-edge Ref run it
// recomputes α from the retained scores and the destination score
// h_d·p_dst, forms dq and dα, and backpropagates through the segment
// softmax and the logits' LeakyReLU. The engine scores a node as
// h·(W_Ref·a) where the tape scores (h·W_Ref)·a; the backward undoes that
// reassociation once per layer, not per node: with g_pSrc = Σ_i ds_i·h_i
// and g_pDst = Σ_d ds_d·h_d accumulated as H-vectors,
// dW_Ref = h_srcᵀ·dQ + g_pSrc·aSrcᵀ + g_pDst·aDstᵀ (the product over the
// relation's source rows only), daSrc = W_Refᵀ·g_pSrc and
// daDst = W_Refᵀ·g_pDst.
//
// What a one-edge Ref run no longer adds changes no bit. Its
// dz = α·(1/1)·(dα − α·dα) is +0 for a finite dα (x − x = +0, and the
// LeakyReLU slope is positive), so it would add +0 to dsSrc and dsDst, and
// ±0 products dsDst·h_d to g_pDst and dsDst·p_dst to dL/dh_d. The
// accumulators it skips all start at +0 — cleared, or a matmul's output,
// which accumulates from +0 — and only have values added. In
// round-to-nearest x + y is −0 only when x and y both are, so such an
// accumulator is never −0, and adding ±0 to it returns it unchanged.

// Gradient returns the per-example loss gradient of samples at the model's
// current parameter values, in nn.Train's form: the squared error against
// each sample's scaled target, differentiated with respect to every
// parameter. Train takes one per mini-batch, after the previous step; the
// result holds until the parameters next change. Gradient refreshes the
// weight set's derived values in place, for this batch and for any Predict
// after it, and allocates only the returned closure. The model keeps its
// training workspaces on a free list, so in steady state an example's
// gradient allocates nothing.
func (m *Model) Gradient(samples []*Sample) nn.Gradient {
	m.refresh()
	return func(i int, grad []float64) float64 {
		gw := m.grads.get()
		loss := m.w.gradient(gw, samples[i], grad)
		m.grads.put(gw)
		return loss
	}
}

// gradWS is one training worker's state: an engine workspace whose passes
// record the ReLU masks, and the backward's scratch.
type gradWS struct {
	workspace
	dh, dIn tensor.Matrix // N×H: dL/d(a layer's output), then dL/d(its input)
	dq      tensor.Matrix // a relation's source rows × H: dL/dq
	offs    []int         // where each row a weight gradient reads starts in h
	dsSrc   []float64     // per source row of a relation: dL/d(its score)
	dAlpha  []float64     // one run's dL/dα
	vec     []float64     // the head's, then one relation's, H-vectors
}

// gradient runs s forward through the engine and back, adding the squared
// error's gradient into grad (zeroed, Params order), and returns the
// squared error.
func (w *weights) gradient(gw *gradWS, s *Sample, grad []float64) float64 {
	ws := &gw.workspace
	st := &ws.slots[0]
	st.buf = resize(st.buf, ws.shape(w, s.G))
	ws.pass = resize(ws.pass, len(w.layers)*ws.n*ws.hdim+2*ws.hdim+w.featB.Cols)
	gw.vec = resize(gw.vec, 3*ws.hdim+w.featB.Cols)
	d := w.forward(ws, st, nil, s) - s.Target

	gw.head(w, 2*d, grad)
	for li := len(w.layers) - 1; li >= 0; li-- {
		gw.layer(w, st, li, grad)
	}
	gw.embeddings(w, s.G, grad)
	// Nothing of the call's graph may outlive it in the kept workspace.
	ws.plan, st.g = nil, nil
	return d * d
}

// head backpropagates dp = dL/dprediction through the regression head, the
// two fully connected layers and the feature branch, leaving dL/dh^L in
// gw.dh.
func (gw *gradWS) head(w *weights, dp float64, grad []float64) {
	at, ws := w.at, &gw.workspace
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

// addHTB adds h[rows]ᵀ·b into dst (H × b.Cols, row-major), a weight
// gradient read from the layer input h where it lies; nil rows means
// every row of h, in order.
func (gw *gradWS) addHTB(h *tensor.Matrix, rows []int, b *tensor.Matrix, dst []float64) {
	gw.offs = resize(gw.offs, b.Rows)
	for k := range gw.offs {
		i := k
		if rows != nil {
			i = rows[k]
		}
		gw.offs[k] = i * h.Cols
	}
	tensor.AddMatMulTInto(h, gw.offs, b, dst)
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
func (gw *gradWS) layer(w *weights, st *slot, li int, grad []float64) {
	ws := &gw.workspace
	l := &w.layers[li]
	n, hd := ws.n, ws.hdim
	in := ws.h(st, li)

	// Through the ReLU, then the self projection and bias, whose input
	// gradient dOut·W_selfᵀ starts dL/dh^li. The mask is an and on the
	// bits, +0 where the ReLU blocked: the pattern is effectively random,
	// so a branch would mispredict on half the elements.
	dOut := &gw.dh
	pass := ws.pass[li*n*hd : (li+1)*n*hd]
	dd := dOut.Data[:len(pass)]
	for i, ok := range pass {
		var keep uint64
		if ok {
			keep = 1
		}
		dd[i] = math.Float64frombits(math.Float64bits(dd[i]) & -keep)
	}
	gw.addHTB(&in, nil, dOut, grad[l.at.self:])
	bias := grad[l.at.bias : l.at.bias+hd]
	for i := 0; i < n; i++ {
		for j, v := range dOut.Row(i) {
			bias[j] += v
		}
	}
	tensor.MatMulInto(dOut, l.selfT, &gw.dIn)

	for r := range min(len(st.g.Rels), len(l.w)) {
		if len(ws.plan.rels[r].edge) > 0 {
			gw.relation(w, st, li, r, grad)
		}
	}
	gw.dh, gw.dIn = gw.dIn, gw.dh
}

// relation backpropagates relation r's messages at layer li from dL/dOut
// (gw.dh) into dL/dh^li (gw.dIn) and the relation's parameter gradients.
func (gw *gradWS) relation(w *weights, st *slot, li, r int, grad []float64) {
	ws, l := &gw.workspace, &w.layers[li]
	rp, hd := &ws.plan.rels[r], ws.hdim
	in, dOut, dIn := ws.h(st, li), &gw.dh, &gw.dIn
	q, score := ws.q(st, li, r)

	reshape(&gw.dq, q.Rows, hd)
	clear(gw.dq.Data)
	gPSrc, gPDst := gw.vec[:hd], gw.vec[hd:2*hd]
	if r == ref {
		gw.dsSrc = resize(gw.dsSrc, q.Rows)
		clear(gw.dsSrc)
		gw.dAlpha = resize(gw.dAlpha, len(ws.logits))
		clear(gPSrc)
		clear(gPDst)
	}

	var wt []float64 // Child's w̃ (plan order) and coefficient; nil off Child
	var c float64
	if r == child && st.g.Rels[r].LogW != nil {
		wt, c = ws.wt, l.wCoef[0]
	}
	var dc float64
	for t, d := range rp.runDst {
		lo, hi := rp.runStart[t], rp.runStart[t+1]
		dRow := dOut.Row(d)
		if r != ref || hi-lo == 1 {
			// α = 1: each message is k·q with k = 1 + c·w̃ on Child and 1
			// elsewhere, so dq += k·dOut_d and, where w̃ ≠ 0,
			// dc += w̃·(dOut_d·q).
			for i := lo; i < hi; i++ {
				si := rp.edgeSrcIdx[i]
				k, ew := 1.0, 0.0
				if wt != nil {
					ew = wt[i]
					k = float64(ew*c) + 1
				}
				axpy(gw.dq.Row(si), k, dRow)
				if ew != 0 {
					dc += float64(ew * tensor.Dot(dRow, q.Row(si)))
				}
			}
			continue
		}
		// α exactly as the forward computed it. The message α·q gives
		// dq += α·dOut_d and dα = dOut_d·q.
		ds := tensor.Dot(in.Row(d), l.pDst)
		alpha := ws.logits[:hi-lo]
		inv := l.softmax(alpha, score, rp.edgeSrcIdx[lo:hi], ds)
		dAlpha := gw.dAlpha[:hi-lo]
		var dot float64 // Σ α·dα over the segment
		for i := lo; i < hi; i++ {
			a, si := alpha[i-lo]*inv, rp.edgeSrcIdx[i]
			axpy(gw.dq.Row(si), a, dRow)
			dAlpha[i-lo] = tensor.Dot(dRow, q.Row(si))
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
		axpy(dIn.Row(d), dsDst, l.pDst)
	}
	if r == child {
		grad[l.at.wCoef] += dc
	}

	// dW_r = h_srcᵀ·dQ; on Ref it adds g_pSrc·aSrcᵀ + g_pDst·aDstᵀ, and
	// da = W_Refᵀ·g_p.
	gW := grad[l.at.w[r] : l.at.w[r]+hd*hd]
	gw.addHTB(&in, rp.srcList, &gw.dq, gW)
	if r == ref {
		for si, node := range rp.srcList {
			if ds := gw.dsSrc[si]; ds != 0 {
				axpy(gPSrc, ds, in.Row(node))
				axpy(dIn.Row(node), ds, l.pSrc)
			}
		}
		gASrc, gADst := grad[l.at.aSrc:l.at.aSrc+hd], grad[l.at.aDst:l.at.aDst+hd]
		for i := 0; i < hd; i++ {
			row := gW[i*hd : (i+1)*hd]
			axpy(row, gPSrc[i], l.aSrc)
			axpy(row, gPDst[i], l.aDst)
			wRow := l.w[r].Row(i)
			axpy(gASrc, gPSrc[i], wRow)
			axpy(gADst, gPDst[i], wRow)
		}
	}
	// dh_src += dQ·W_rᵀ, added into the relation's distinct source rows.
	tensor.MatMulRowsInto(&gw.dq, nil, l.wT[r], dIn, rp.srcList, true)
}

// embeddings backpropagates dL/dh⁰ (gw.dh) into the kind and sub-kind
// embedding rows and the scalar feature's projection featVec.
func (gw *gradWS) embeddings(w *weights, g *Graph, grad []float64) {
	hd, at := gw.hdim, w.at
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
