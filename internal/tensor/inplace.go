package tensor

import "fmt"

// This file holds the destination-passing kernels behind the inference
// engine (internal/gnn): each op writes into a caller-owned matrix instead of
// allocating a fresh one, so a whole forward pass can run out of a pooled
// workspace with zero heap traffic. The elementwise kernels reuse the exact
// loop body of their allocating counterparts (or the matching autodiff tape
// op) and produce bit-identical values. The three matmul entry points —
// MatMulInto, MatMulRowsInto and AddMatMulTInto — instead run the one tiled
// kernel (tiled.go, with an AVX micro-kernel on amd64), which keeps the
// naive MatMul's per-element accumulation order and so agrees with it to
// the last ulp; they differ only in where it reads a and writes dst.
//
// These are the kernels the engine calls directly. The message path —
// gather, attention softmax, scatter — has no op-level form here: gnn's
// fused RGAT loop nest (gnn/infer.go) runs it in one pass over each
// relation's edges, and the gnn equivalence fuzz pins that nest to the tape.
//
// The kernel computes every output row from its input row alone, with one
// fixed accumulation order per element, so any subset of rows multiplied on
// its own — copied out, or read where it lies by MatMulRowsInto — equals the
// same rows of the full product bit for bit. gnn's family evaluation
// recomputes row subsets on that guarantee; TestMatMulRowSubsetBitIdentical
// pins it.
//
// The kernels are single-goroutine by design: parallelism belongs to the
// caller, which fans out across samples (gnn.Model.PredictBatch), not across
// rows of one product. dst is reshaped from its existing capacity,
// allocating only when it must grow — pre-size it to stay allocation-free
// (MatMulRowsInto and AddMatMulTInto write into dst as it is).

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
	matMul(a.Data, nil, a.Cols, identity(a.Cols), b.Data, b.Cols, dst.Data, nil, a.Rows, false)
}

// MatMulRowsInto computes row dRows[i] of dst from row aRows[i] of a times
// b, for every i, where they lie: dst's row is overwritten or, with add,
// has the product added into it. A nil list (not an empty one) stands for
// every row of its matrix in order. dst keeps its shape and its other
// rows; its listed rows must be distinct, and it must not alias a or b.
// Each row has the bits of the same row of MatMulInto(a, b) (plus dst's
// row, with add): the kernel computes a row from its input row alone.
func MatMulRowsInto(a *Matrix, aRows []int, b, dst *Matrix, dRows []int, add bool) {
	m := len(aRows)
	if aRows == nil {
		m = a.Rows
	}
	dm := len(dRows)
	if dRows == nil {
		dm = dst.Rows
	}
	shapeCheck(a.Cols == b.Rows && dst.Cols == b.Cols && m == dm,
		"MatMulRowsInto %d rows of %dx%d × %dx%d into %d rows of %dx%d",
		m, a.Rows, a.Cols, b.Rows, b.Cols, dm, dst.Rows, dst.Cols)
	// The assembly reads a unchecked, so every source row is checked here;
	// a destination row outside dst fails the kernel's slice of it.
	for _, i := range aRows {
		if i < 0 || i >= a.Rows {
			panic(fmt.Sprintf("tensor: MatMulRowsInto source row %d of %d", i, a.Rows))
		}
	}
	matMul(a.Data, aRows, a.Cols, identity(a.Cols), b.Data, b.Cols, dst.Data, dRows, m, add)
}

// AddMatMulTInto computes dst += a[rows]ᵀ×b without materialising the
// transpose. offs lists, per row t of b, where its paired row of a starts
// in a.Data: rows[t]·a.Cols, or t·a.Cols when every row of a is used in
// order. dst holds a.Cols×b.Cols elements, row-major, and must not alias a
// or b. Each element sums its len(offs) products in t order from +0, each
// product and sum rounded on its own, then adds the sum into dst once: the
// bits of TransposeInto of the gathered rows, MatMulInto and an add, on the
// AVX kernel and in Go alike.
func AddMatMulTInto(a *Matrix, offs []int, b *Matrix, dst []float64) {
	if len(offs) != b.Rows || len(dst) < a.Cols*b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulTInto %d rows of %dx%d ᵀ× %dx%d into %d",
			len(offs), a.Rows, a.Cols, b.Rows, b.Cols, len(dst)))
	}
	for _, off := range offs {
		if off < 0 || off > len(a.Data)-a.Cols {
			panic("tensor: AddMatMulTInto row offset out of range")
		}
	}
	matMul(a.Data, nil, 1, offs, b.Data, b.Cols, dst, nil, a.Cols, true)
}

// TransposeInto computes dst = aᵀ. dst must not alias a.
func TransposeInto(a, dst *Matrix) {
	dst.reshape(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j*a.Rows+i] = v
		}
	}
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
//
// Four columns at a time keep their sums in registers across the rows; each
// column is still summed row by row from +0, so the bits do not depend on
// the blocking.
func MeanRowsInto(a, dst *Matrix) {
	shapeCheck(a.Rows > 0, "MeanRowsInto of empty matrix")
	dst.reshape(1, a.Cols)
	c, d, n := a.Cols, dst.Data, a.Rows*a.Cols
	j := 0
	for ; j+4 <= c; j += 4 {
		var s0, s1, s2, s3 float64
		for off := j; off < n; off += c {
			r := a.Data[off : off+4 : off+4]
			s0 += r[0]
			s1 += r[1]
			s2 += r[2]
			s3 += r[3]
		}
		d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
	}
	for ; j < c; j++ {
		var s float64
		for off := j; off < n; off += c {
			s += a.Data[off]
		}
		d[j] = s
	}
	inv := 1 / float64(a.Rows)
	for j := range d {
		d[j] *= inv
	}
}
