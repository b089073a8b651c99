// Package tensor implements the dense float64 matrix and the kernels
// underpinning the neural-network stack: allocation, element access, the
// naive reference product, seeded random initialization, and the
// destination-passing kernels of the inference engine (inplace.go,
// tiled.go). One type, Matrix, carries the autodiff tape, the optimizer,
// checkpoints and the engine alike. It is the lowest layer of the
// substitute for the paper's PyTorch-Geometric stack.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromData wraps data (not copied) as a rows×cols matrix.
func FromData(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Scalar wraps a single value as a 1×1 matrix.
func Scalar(v float64) *Matrix { return FromData(1, 1, []float64{v}) }

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable slice view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SameShape reports whether two matrices have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

// shapeCheck panics on mismatched shapes; internal fail-fast for programmer
// errors (mismatches are bugs, not runtime conditions).
func shapeCheck(cond bool, format string, args ...any) {
	if !cond {
		panic("tensor: " + fmt.Sprintf(format, args...))
	}
}

// AddInPlace adds o into m element-wise.
func (m *Matrix) AddInPlace(o *Matrix) {
	shapeCheck(m.SameShape(o), "AddInPlace %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	for i, v := range o.Data {
		m.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AxpyInPlace adds s*o into m.
func (m *Matrix) AxpyInPlace(s float64, o *Matrix) {
	shapeCheck(m.SameShape(o), "AxpyInPlace %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols)
	for i, v := range o.Data {
		m.Data[i] += float64(s * v)
	}
}

// Add returns m + o.
func Add(m, o *Matrix) *Matrix {
	out := m.Clone()
	out.AddInPlace(o)
	return out
}

// Transpose returns mᵀ.
func Transpose(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	TransposeInto(m, out)
	return out
}

// MatMul returns a×b through the naive serial kernel: an ikj loop that
// streams b row-wise and skips a's zero elements. It is the reference the
// autodiff tape is defined by, deliberately separate from the engine's tiled
// kernel (MatMulInto) so the tape stays an independent oracle for it.
func MatMul(a, b *Matrix) *Matrix {
	shapeCheck(a.Cols == b.Rows, "MatMul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		oi := out.Row(i)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				oi[j] += float64(av * bv)
			}
		}
	}
	return out
}

// Norm2 returns the Frobenius norm.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v * v)
	}
	return math.Sqrt(s)
}

// Glorot fills the matrix with Glorot/Xavier-uniform values using rng.
func (m *Matrix) Glorot(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		// Float64 scales an integer by a product that would otherwise fuse
		// into the doubling: round its result first.
		m.Data[i] = (float64(rng.Float64())*2 - 1) * limit
	}
}

// RandN fills the matrix with N(0, std) values using rng.
func (m *Matrix) RandN(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// String renders small matrices for diagnostics.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}
