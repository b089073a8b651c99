package tensor

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// equivTrials is the fuzz budget: the default keeps local `go test` fast;
// CI's equivalence-gate step raises it through PARAGRAPH_EQUIV_TRIALS, as it
// does gnn's.
func equivTrials(def int) int {
	if n, err := strconv.Atoi(os.Getenv("PARAGRAPH_EQUIV_TRIALS")); err == nil && n > 0 {
		return n
	}
	return def
}

// ulpDiff64 returns the distance in representable float64 values between a
// and b. Equal values (including +0 vs −0) are distance 0; NaNs and
// opposite-sign pairs are reported as a huge distance so they always fail a
// ≤1-ulp gate.
func ulpDiff64(a, b float64) uint64 {
	if a == b {
		return 0
	}
	if math.IsNaN(a) || math.IsNaN(b) || (a < 0) != (b < 0) {
		return math.MaxUint64
	}
	ai, bi := math.Float64bits(math.Abs(a)), math.Float64bits(math.Abs(b))
	if ai > bi {
		return ai - bi
	}
	return bi - ai
}

// assertWithinOneUlp checks got against want element-wise under the tiled
// kernel's ordering guarantee: identical accumulation order means any
// difference from the naive kernel can come only from its skip-zero branch
// (signed-zero placement), never exceed 1 ulp.
func assertWithinOneUlp(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if d := ulpDiff64(got.Data[i], want.Data[i]); d > 1 {
			t.Fatalf("%s: element %d = %v, want %v (%d ulps apart)",
				name, i, got.Data[i], want.Data[i], d)
		}
	}
}

// randSparseMat fills a matrix with normal values, zeroing a fraction of
// them exactly — the shape of post-ReLU activations, and the input class
// where the naive kernel's skip-zero branch diverges from the tiled kernel
// by a signed zero.
func randSparseMat(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if rng.Float64() >= zeroFrac {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// TestTiledMatchesNaive sweeps the tile-geometry edge cases: dimensions off
// every tile boundary (odd rows for the 2-row micro-kernel, columns around
// the 4-wide register block and the 64-wide panel), single-row and
// single-column operands, and empty matrices on each side. The tiled result
// must match the naive reference kernel exactly or within 1 ulp.
func TestTiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := func(edges ...int) []int { return edges }
	ms := dims(0, 1, 2, 3, 5, 8, 33)
	ns := dims(0, 1, 3, 4, 5, 63, 64, 65, 130)
	ks := dims(0, 1, 2, 7, 32)
	dst := New(0, 0)
	for _, m := range ms {
		for _, n := range ns {
			for _, k := range ks {
				a := randSparseMat(rng, m, k, 0.3)
				b := randMat(rng, k, n)
				MatMulInto(a, b, dst)
				want := MatMul(a, b)
				assertWithinOneUlp(t, "MatMulInto", dst, want)
			}
		}
	}
}

// TestTiledMatchesNaiveFuzz hammers random geometries and zero densities
// through the tiled kernel, holding it to the exact-or-1-ulp gate against
// the naive reference kernel and to bit identity against the in-order
// product.
func TestTiledMatchesNaiveFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dst := New(0, 0)
	for trial := 0; trial < equivTrials(300); trial++ {
		m, k, n := rng.Intn(40), rng.Intn(40), rng.Intn(140)
		a := randSparseMat(rng, m, k, []float64{0, 0.2, 0.5, 0.9}[rng.Intn(4)])
		b := randMat(rng, k, n)
		want, inOrder := MatMul(a, b), naiveMatMul(a, b)

		MatMulInto(a, b, dst)
		assertWithinOneUlp(t, "MatMulInto", dst, want)
		assertExact(t, "MatMulInto vs in-order", dst, inOrder)
	}
}

// naiveMatMul is the in-order reference product: plain ijk with the k loop
// innermost and in order — the same per-element accumulation order as the
// tiled kernel, so on operands without negative zeros the two agree bit for
// bit.
func naiveMatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow, orow := a.Row(i), out.Row(i)
		for j := 0; j < b.Cols; j++ {
			var s float64
			for t := 0; t < a.Cols; t++ {
				s += arow[t] * b.Data[t*b.Cols+j]
			}
			orow[j] = s
		}
	}
	return out
}

// assertBitIdentical compares bit patterns, so signed zeros count.
func assertBitIdentical(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestMatMulRowSubsetBitIdentical pins the kernel property gnn's family
// evaluation stands on (inplace.go): multiplying any subset of a's rows on
// its own gives the same bits as those rows of the full product, whatever
// the subset does to the 2-row micro-kernel's pairing. The operands are
// ReLU-sparse (negatives clamped to +0), as a hidden layer's input is.
func TestMatMulRowSubsetBitIdentical(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		full, part := New(0, 0), New(0, 0)
		for trial := 0; trial < equivTrials(150); trial++ {
			m, k, n := 1+rng.Intn(24), rng.Intn(33), 1+rng.Intn(70)
			a := randMat(rng, m, k)
			for i, v := range a.Data {
				a.Data[i] = max(v, 0)
			}
			b := randMat(rng, k, n)
			MatMulInto(a, b, full)

			var rows []int
			for i := 0; i < m; i++ {
				if rng.Intn(3) == 0 {
					rows = append(rows, i)
				}
			}
			sub := &Matrix{Rows: len(rows), Cols: k}
			for _, i := range rows {
				sub.Data = append(sub.Data, a.Row(i)...)
			}
			MatMulInto(sub, b, part)
			for j, i := range rows {
				assertBitIdentical(t, "row subset", part.Row(j), full.Row(i))
			}
		}
	})
}

// TestTiledOverwritesStaleDst pins that MatMulInto fully overwrites a
// recycled destination — including the k == 0 product, which must clear
// rather than keep stale values.
func TestTiledOverwritesStaleDst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dst := New(0, 0)
	MatMulInto(randMat(rng, 6, 5), randMat(rng, 5, 70), dst) // dirty the buffer
	a, b := New(6, 0), New(0, 70)
	MatMulInto(a, b, dst)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("k=0 product element %d = %v, want 0", i, v)
		}
	}
	// Shrinking reuse: a smaller product into the same buffer must reshape
	// and not read stale tail values.
	a2, b2 := randMat(rng, 3, 4), randMat(rng, 4, 2)
	MatMulInto(a2, b2, dst)
	assertWithinOneUlp(t, "shrunk dst", dst, MatMul(a2, b2))
}

// TestDot pins the in-order dot product against a plain loop, including
// empty and single-element vectors.
func TestDot(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{0, 1, 2, 7, 33} {
		a, b := make([]float64, n), make([]float64, n)
		var want float64
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		for i := range a {
			want += a[i] * b[i]
		}
		if got := Dot(a, b); got != want {
			t.Errorf("Dot(len %d) = %v, want %v", n, got, want)
		}
	}
	if got := Dot([]float64{1, 2}, []float64{3, 4, 5}); got != 11 {
		t.Errorf("Dot with longer b = %v, want 11", got)
	}
}
