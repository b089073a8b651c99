package tensor

// This file holds the destination-passing kernels behind the inference fast
// path (internal/gnn): each op writes into a caller-owned matrix instead of
// allocating a fresh one, so a whole forward pass can run out of a pooled
// workspace with zero heap traffic. They are generic over the element width
// (Dense[float64] and Dense[float32] compile from one body); the autodiff
// tape, the optimizer and checkpoint serialization stay on the float64
// Matrix, and a Dense is always derived from one (Convert). The elementwise kernels
// reuse the exact loop body of their allocating counterparts (or the
// matching autodiff tape op) and, in float64, produce bit-identical values;
// MatMulInto instead runs the tiled kernel (tiled.go), which preserves
// per-element accumulation order and so agrees with the naive MatMul to the
// last ulp.
//
// These are the kernels the engine calls directly. The message path —
// gather, attention softmax, scatter — has no op-level form here: gnn's
// fused RGAT loop nest (gnn/infer.go) runs it in one pass over each
// relation's edges, and the gnn equivalence fuzz pins that nest to the tape.
//
// Both matmuls compute every output row from its input row alone, with one
// fixed accumulation order per element, so any subset of rows multiplied on
// its own equals the same rows of the full product bit for bit, and the two
// kernels agree bit for bit on finite operands (a skipped zero would have
// added exactly 0). gnn's family evaluation recomputes row subsets on that
// guarantee; TestMatMulRowSubsetBitIdentical pins it.
//
// The kernels are single-goroutine by design: parallelism belongs to the
// caller, which fans out across samples (gnn.Model.PredictBatch), not across
// rows of one product. dst is reshaped from its existing capacity,
// allocating only when it must grow — pre-size it (see Arena) to stay
// allocation-free.

// Dense is a row-major matrix in one of the two inference element widths.
// Halving the element size halves the memory traffic of every matmul and
// doubles the rows of a weight panel that fit in one cache line.
type Dense[F Float] struct {
	Rows, Cols int
	Data       []F // len Rows*Cols
}

// Convert returns a freshly allocated copy of a float64 matrix in width F,
// rounding each element to nearest.
func Convert[F Float](src *Matrix) *Dense[F] {
	return &Dense[F]{Rows: src.Rows, Cols: src.Cols, Data: ConvertSlice[F](src.Data)}
}

// ConvertSlice rounds a float64 slice to a fresh slice of width F.
func ConvertSlice[F Float](src []float64) []F {
	out := make([]F, len(src))
	for i, v := range src {
		out[i] = F(v)
	}
	return out
}

// Row returns a mutable slice view of row i.
func (m *Dense[F]) Row(i int) []F { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// reshape points m at a rows×cols view of its backing array, growing the
// array only when capacity is insufficient.
func (m *Dense[F]) reshape(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("tensor: reshape to negative dimensions")
	}
	n := rows * cols
	if cap(m.Data) < n {
		m.Data = make([]F, n)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
}

// MatMulInto computes dst = a×b. dst must not alias a or b; it is reshaped
// to a.Rows×b.Cols and fully overwritten. Unlike the allocating MatMul
// (which stays the naive reference kernel the autodiff tape is defined by),
// MatMulInto runs the register-blocked tiled kernel (tiled.go): each output
// element still accumulates its k products in index order, so results agree
// with MatMul to the last ulp (they can differ only where MatMul's
// skip-zero branch changes a signed zero).
func MatMulInto[F Float](a, b, dst *Dense[F]) {
	shapeCheck(a.Cols == b.Rows, "MatMulInto %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dst.reshape(a.Rows, b.Cols)
	matMulTiled(a.Data, a.Rows, a.Cols, b.Data, b.Cols, dst.Data)
}

// MatMulSparseInto is MatMulInto through the skip-zero row kernel: a zero
// element of a skips its whole b-row pass, so the cost scales with a's
// non-zero count. Worth it for operands whose rows are zero-heavy —
// post-ReLU activations, typically — where skipped inner loops beat the
// tiled kernel's register blocking; the inference engine dispatches between
// the two on measured density.
func MatMulSparseInto[F Float](a, b, dst *Dense[F]) {
	shapeCheck(a.Cols == b.Rows, "MatMulSparseInto %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	dst.reshape(a.Rows, b.Cols)
	matMulSparseRows(a.Data, a.Rows, a.Cols, b.Data, b.Cols, dst.Data)
}

// AddBiasInto computes dst = a + bias, broadcasting the 1×C bias over a's
// rows. dst may alias a.
func AddBiasInto[F Float](a, bias, dst *Dense[F]) {
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
func LeakyReLUInto[F Float](a *Dense[F], alpha F, dst *Dense[F]) {
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
func MeanRowsInto[F Float](a, dst *Dense[F]) {
	shapeCheck(a.Rows > 0, "MeanRowsInto of empty matrix")
	dst.reshape(1, a.Cols)
	clear(dst.Data)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			dst.Data[j] += v
		}
	}
	inv := 1 / F(a.Rows)
	for j := range dst.Data {
		dst.Data[j] *= inv
	}
}
