package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat32(rng *rand.Rand, rows, cols int) *Dense[float32] {
	return Convert[float32](randMat(rng, rows, cols))
}

// naiveMatMul is the reference product in either width: plain ijk with the
// k loop innermost and in order — the same per-element accumulation order
// as the tiled kernel.
func naiveMatMul[F Float](a, b *Dense[F]) *Dense[F] {
	out := &Dense[F]{Rows: a.Rows, Cols: b.Cols, Data: make([]F, a.Rows*b.Cols)}
	for i := 0; i < a.Rows; i++ {
		arow, orow := a.Row(i), out.Row(i)
		for j := 0; j < b.Cols; j++ {
			var s F
			for t := 0; t < a.Cols; t++ {
				s += arow[t] * b.Data[t*b.Cols+j]
			}
			orow[j] = s
		}
	}
	return out
}

// bitsOf widens to float64 (exact for both widths) and returns the bit
// pattern, so comparisons distinguish signed zeros and NaN payloads.
func bitsOf[F Float](v F) uint64 { return math.Float64bits(float64(v)) }

func assertBitIdentical[F Float](t *testing.T, name string, got, want []F) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if bitsOf(got[i]) != bitsOf(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestMatMul32MatchesNaive fuzzes the float32 tiled and sparse kernels
// against the in-order naive product across tile-edge geometries. Identical
// accumulation order makes the comparison bit-exact (the float32 operands
// contain no negative zeros for the skip-zero branch to flip).
func TestMatMul32MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	dst := &Dense[float32]{}
	for trial := 0; trial < 200; trial++ {
		m, k, n := rng.Intn(20), rng.Intn(20), rng.Intn(140)
		a, b := randMat32(rng, m, k), randMat32(rng, k, n)
		for i := range a.Data {
			if rng.Float64() < 0.3 {
				a.Data[i] = 0
			}
		}
		want := naiveMatMul(a, b)
		MatMulInto(a, b, dst)
		assertBitIdentical(t, "MatMulInto[float32]", dst.Data, want.Data)
		MatMulSparseInto(a, b, dst)
		assertBitIdentical(t, "MatMulSparseInto[float32]", dst.Data, want.Data)
	}
}

// reluSparse draws a matrix the way a layer input looks after ReLU: normal
// values with every negative clamped to +0 (no negative zeros, all finite).
func reluSparse[F Float](rng *rand.Rand, rows, cols int) *Dense[F] {
	m := Convert[F](randMat(rng, rows, cols))
	for i, v := range m.Data {
		m.Data[i] = max(v, 0)
	}
	return m
}

// matMulRowProperties checks, in one width, the two kernel properties gnn's
// family evaluation stands on: (1) multiplying any subset of a's rows on its
// own gives the same bits as those rows of the full product, whatever the
// subset does to the 2-row micro-kernel's pairing; (2) on ReLU-sparse finite
// operands the skip-zero kernel and the tiled kernel agree bit for bit, so
// which of the two a row went through never shows.
func matMulRowProperties[F Float](t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	full, fullSparse, part := &Dense[F]{}, &Dense[F]{}, &Dense[F]{}
	for trial := 0; trial < 150; trial++ {
		m, k, n := 1+rng.Intn(24), rng.Intn(33), 1+rng.Intn(70)
		a := reluSparse[F](rng, m, k)
		b := Convert[F](randMat(rng, k, n))
		MatMulInto(a, b, full)
		MatMulSparseInto(a, b, fullSparse)
		assertBitIdentical(t, "sparse vs tiled", fullSparse.Data, full.Data)

		var rows []int
		for i := 0; i < m; i++ {
			if rng.Intn(3) == 0 {
				rows = append(rows, i)
			}
		}
		sub := &Dense[F]{Rows: len(rows), Cols: k}
		for _, i := range rows {
			sub.Data = append(sub.Data, a.Row(i)...)
		}
		for _, mul := range []func(a, b, dst *Dense[F]){MatMulInto[F], MatMulSparseInto[F]} {
			mul(sub, b, part)
			for j, i := range rows {
				assertBitIdentical(t, "row subset", part.Row(j), full.Row(i))
			}
		}
	}
}

// TestMatMulRowSubsetBitIdentical pins the row-independence and
// kernel-interchangeability guarantees of inplace.go in both widths.
func TestMatMulRowSubsetBitIdentical(t *testing.T) {
	t.Run("float64", func(t *testing.T) { matMulRowProperties[float64](t, 41) })
	t.Run("float32", func(t *testing.T) { matMulRowProperties[float32](t, 42) })
}

// TestF32KernelsMatchFloat64 pins each elementwise kernel's float32
// instantiation to the float64 one run on the same operands: the same
// formula at lower precision, so results agree to float32 rounding of the
// float64 result.
func TestF32KernelsMatchFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a64 := dense(randMat(rng, 7, 5))
	a32 := Convert[float32]((*Matrix)(a64))

	bias64 := dense(randMat(rng, 1, 5))
	bias32 := Convert[float32]((*Matrix)(bias64))
	got, want := &Dense[float32]{}, &Dense[float64]{}
	AddBiasInto(a32, bias32, got)
	AddBiasInto(a64, bias64, want)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i])-want.Data[i]) > 1e-6*math.Max(1, math.Abs(want.Data[i])) {
			t.Fatalf("AddBiasInto[float32] element %d = %v, want ≈%v", i, got.Data[i], want.Data[i])
		}
	}

	LeakyReLUInto(a32, 0.2, got)
	LeakyReLUInto(a64, 0.2, want)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i])-want.Data[i]) > 1e-6 {
			t.Fatalf("LeakyReLUInto[float32] element %d = %v, want ≈%v", i, got.Data[i], want.Data[i])
		}
	}
	// Exact zeros and signs must survive the float32 ReLU.
	z := &Dense[float32]{Rows: 1, Cols: 3, Data: []float32{0, -1, 2}}
	LeakyReLUInto(z, 0, z)
	if z.Data[0] != 0 || z.Data[1] != 0 || z.Data[2] != 2 {
		t.Fatalf("LeakyReLUInto[float32] alpha=0 = %v", z.Data)
	}

	MeanRowsInto(a32, got)
	MeanRowsInto(a64, want)
	for i := range want.Data {
		if math.Abs(float64(got.Data[i])-want.Data[i]) > 1e-6 {
			t.Fatalf("MeanRowsInto[float32] element %d = %v, want ≈%v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestConvert32 pins the conversion helpers: shape preserved, elements
// rounded to nearest float32 (and copied unchanged at float64).
func TestConvert32(t *testing.T) {
	src := FromData(2, 3, []float64{1, -2.5, 1e-300, math.Pi, -0.0, 3e38})
	m := Convert[float32](src)
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	for i, v := range src.Data {
		if m.Data[i] != float32(v) {
			t.Errorf("element %d = %v, want %v", i, m.Data[i], float32(v))
		}
	}
	s := ConvertSlice[float32](src.Data)
	for i, v := range src.Data {
		if s[i] != float32(v) {
			t.Errorf("slice element %d = %v, want %v", i, s[i], float32(v))
		}
	}
	if got := m.Row(1)[0]; got != float32(math.Pi) {
		t.Errorf("Row(1)[0] = %v", got)
	}
	same := Convert[float64](src)
	assertBitIdentical(t, "Convert[float64]", same.Data, src.Data)
	if &same.Data[0] == &src.Data[0] {
		t.Error("Convert[float64] aliases its source; it must copy")
	}
}

// TestArena32Recycles mirrors the float64 arena tests in the other width:
// steady-state GetMatrix/GetSlice calls on stable shapes must not allocate,
// and grown buffers must flow back through the free lists.
func TestArena32Recycles(t *testing.T) {
	var ar Arena[float32]
	var m Dense[float32]
	ar.GetMatrix(&m, 8, 8)
	prev := &m.Data[0]
	if allocs := testing.AllocsPerRun(50, func() { ar.GetMatrix(&m, 8, 8) }); allocs != 0 {
		t.Errorf("steady-state GetMatrix allocates %v/run", allocs)
	}
	if &m.Data[0] != prev {
		t.Error("steady-state GetMatrix moved the backing array")
	}

	buf := ar.Get(100)
	ar.Put(buf)
	buf2 := ar.Get(100)
	if &buf[0] != &buf2[0] {
		t.Error("Put/Get did not recycle the buffer")
	}

	s := ar.GetSlice(nil, 16)
	if len(s) != 16 {
		t.Fatalf("GetSlice len %d", len(s))
	}
	if allocs := testing.AllocsPerRun(50, func() { s = ar.GetSlice(s, 16) }); allocs != 0 {
		t.Errorf("steady-state GetSlice allocates %v/run", allocs)
	}
}
