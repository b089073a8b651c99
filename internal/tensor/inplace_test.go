package tensor

import (
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func assertExact(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestIntoKernelsMatchAllocating pins every destination-passing kernel to
// its allocating counterpart bit for bit — the property the inference
// engine's equivalence guarantee is built on.
func TestIntoKernelsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMat(rng, 9, 5)
	b := randMat(rng, 5, 7)
	dst := New(0, 0)

	MatMulInto(a, b, dst)
	assertExact(t, "MatMulInto", dst, MatMul(a, b))

	want := New(1, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			want.Data[j] += v
		}
	}
	want.ScaleInPlace(1 / float64(a.Rows))
	MeanRowsInto(a, dst)
	assertExact(t, "MeanRowsInto", dst, want)
}

func TestMatMulIntoRejectsBadShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched MatMulInto did not panic")
		}
	}()
	MatMulInto(New(2, 3), New(2, 3), New(0, 0))
}

// TestIntoKernelsReuseCapacity verifies the steady-state contract: a dst
// with sufficient capacity is resliced, never reallocated.
func TestIntoKernelsReuseCapacity(t *testing.T) {
	a := New(4, 4)
	a.Fill(1)
	dst := New(8, 8) // 64 capacity, plenty for 4×4
	data := &dst.Data[0]
	MatMulInto(a, a, dst)
	if &dst.Data[0] != data {
		t.Error("MatMulInto reallocated despite sufficient capacity")
	}
	if dst.Rows != 4 || dst.Cols != 4 {
		t.Errorf("dst reshaped to %dx%d", dst.Rows, dst.Cols)
	}
	if dst.At(0, 0) != 4 {
		t.Errorf("product wrong: %v", dst.At(0, 0))
	}
}
