package tensor

// This file holds the destination-passing kernels behind the inference
// engine (internal/gnn): each op writes into a caller-owned matrix instead of
// allocating a fresh one, so a whole forward pass can run out of a pooled
// workspace with zero heap traffic. The elementwise kernels reuse the exact
// loop body of their allocating counterparts (or the matching autodiff tape
// op) and produce bit-identical values; MatMulInto instead runs the tiled
// kernel (tiled.go, with an AVX micro-kernel on amd64), which keeps the
// naive MatMul's per-element accumulation order and so agrees with it to
// the last ulp.
//
// These are the kernels the engine calls directly. The message path —
// gather, attention softmax, scatter — has no op-level form here: gnn's
// fused RGAT loop nest (gnn/infer.go) runs it in one pass over each
// relation's edges, and the gnn equivalence fuzz pins that nest to the tape.
//
// MatMulInto computes every output row from its input row alone, with one
// fixed accumulation order per element, so any subset of rows multiplied on
// its own equals the same rows of the full product bit for bit. gnn's family
// evaluation recomputes row subsets on that guarantee;
// TestMatMulRowSubsetBitIdentical pins it.
//
// The kernels are single-goroutine by design: parallelism belongs to the
// caller, which fans out across samples (gnn.Model.PredictBatch), not across
// rows of one product. dst is reshaped from its existing capacity,
// allocating only when it must grow — pre-size it to stay allocation-free.

// reshape points m at a rows×cols view of its backing array, growing the
// array only when capacity is insufficient.
func (m *Matrix) reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: reshape to negative dimensions")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
}

// MatMulInto computes dst = a×b. dst must not alias a or b; it is reshaped
// to a.Rows×b.Cols and fully overwritten. Unlike the allocating MatMul
// (which stays the naive reference kernel the autodiff tape is defined by),
// MatMulInto runs the register-blocked tiled kernel (tiled.go), on AVX where
// the CPU has it and in Go otherwise. Either way each output element
// accumulates its k products in index order from +0, each product and each
// sum rounded on its own, so the two give the same bits, and results agree
// with MatMul to the last ulp (they can differ only where MatMul's
// skip-zero branch changes a signed zero).
func MatMulInto(a, b, dst *Matrix) {
	shapeCheck(a.Cols == b.Rows, "MatMulInto %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dst.reshape(a.Rows, b.Cols)
	matMulTiled(a.Data, a.Rows, a.Cols, b.Data, b.Cols, dst.Data)
}

// AddBiasInto computes dst = a + bias, broadcasting the 1×C bias over a's
// rows. dst may alias a.
func AddBiasInto(a, bias, dst *Matrix) {
	shapeCheck(bias.Rows == 1 && bias.Cols == a.Cols,
		"AddBiasInto %dx%d + %dx%d", a.Rows, a.Cols, bias.Rows, bias.Cols)
	dst.reshape(a.Rows, a.Cols)
	brow := bias.Row(0)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j, v := range arow {
			drow[j] = v + brow[j]
		}
	}
}

// LeakyReLUInto computes dst = max(x, alpha*x) element-wise, using the same
// formula as the tape op (negative values map to alpha*x, so alpha == 0
// yields the same signed zeros as the tape's ReLU). dst may alias a.
func LeakyReLUInto(a *Matrix, alpha float64, dst *Matrix) {
	dst.reshape(a.Rows, a.Cols)
	for i, v := range a.Data {
		if v < 0 {
			v = alpha * v
		}
		dst.Data[i] = v
	}
}

// MeanRowsInto computes the 1×C mean over a's rows, accumulating in row
// order and scaling by 1/rows exactly as the tape op does. dst must not
// alias a.
func MeanRowsInto(a, dst *Matrix) {
	shapeCheck(a.Rows > 0, "MeanRowsInto of empty matrix")
	dst.reshape(1, a.Cols)
	clear(dst.Data)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j] += v
		}
	}
	inv := 1 / float64(a.Rows)
	for j := range dst.Data {
		dst.Data[j] *= inv
	}
}
