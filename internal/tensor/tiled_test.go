package tensor

import (
	"fmt"
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
// the 4- and 12-wide register blocks and the 60-wide panel), single-row and
// single-column operands, and empty matrices on each side. The tiled result
// must match the naive reference kernel exactly or within 1 ulp.
func TestTiledMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dims := func(edges ...int) []int { return edges }
	ms := dims(0, 1, 2, 3, 5, 8, 33)
	ns := dims(0, 1, 3, 4, 5, 12, 13, 59, 60, 61, 63, 64, 65, 130)
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
// product, and the AVX kernel to the Go kernels' bits on every trial.
func TestTiledMatchesNaiveFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < equivTrials(300); trial++ {
		m, k, n := rng.Intn(40), rng.Intn(40), rng.Intn(140)
		a := randSparseMat(rng, m, k, []float64{0, 0.2, 0.5, 0.9}[rng.Intn(4)])
		b := randMat(rng, k, n)
		want, inOrder := MatMul(a, b), naiveMatMul(a, b)

		dst := matMulBothKernels(t, a, b)
		assertWithinOneUlp(t, "MatMulInto", dst, want)
		assertExact(t, "MatMulInto vs in-order", dst, inOrder)
	}
}

// matMulBothKernels returns a×b from MatMulInto on the Go kernels alone and,
// where the CPU has AVX, fails unless the AVX kernel gives the same bits
// (any NaN matching any NaN).
func matMulBothKernels(t *testing.T, a, b *Matrix) *Matrix {
	t.Helper()
	hasAVX := useAVX
	defer func() { useAVX = hasAVX }()
	useAVX = false
	goDst := New(0, 0)
	MatMulInto(a, b, goDst)
	if hasAVX {
		useAVX = true
		avxDst := New(0, 0)
		MatMulInto(a, b, avxDst)
		assertSameBits(t, "AVX vs Go kernel", avxDst.Data, goDst.Data)
	}
	return goDst
}

// assertSameBits compares bit patterns, so signed zeros count; a NaN
// matches any NaN, since the payload depends on operand order.
func assertSameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i, w := range want {
		if math.IsNaN(w) && math.IsNaN(got[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %v, want %v", name, i, got[i], w)
		}
	}
}

// specialMat fills a matrix with normal values, about one in 50 replaced by
// −0, ±Inf, NaN or a subnormal, and multiplies every value by scale: at
// 1e-160 each product of two normal values is itself subnormal.
func specialMat(rng *rand.Rand, rows, cols int, scale float64) *Matrix {
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -3e-310}
	m := New(rows, cols)
	for i := range m.Data {
		v := rng.NormFloat64()
		if rng.Intn(50) == 0 {
			v = specials[rng.Intn(len(specials))]
		}
		m.Data[i] = v * scale
	}
	return m
}

// TestAVXMatchesGo sweeps the shapes around the AVX kernel's 2×12 block and
// the 60-column panel, at the depths the engine uses (k = 24 for a
// projection, ≈ 100 for the backward pass's node-count sums), over operands
// with signed zeros, infinities, NaNs and subnormal products. The Go kernels
// must give the in-order product's bits, and the AVX kernel the Go kernels'.
func TestAVXMatchesGo(t *testing.T) {
	if !useAVX {
		t.Log("CPU without AVX: checking the Go kernels alone")
	}
	rng := rand.New(rand.NewSource(25))
	for _, m := range []int{0, 1, 2, 3, 7, 10} {
		for _, n := range []int{1, 4, 11, 12, 13, 23, 24, 25, 64, 65, 76} {
			for _, k := range []int{0, 1, 24, 100} {
				for _, scale := range []float64{1, 1e-160} {
					a, b := specialMat(rng, m, k, scale), specialMat(rng, k, n, scale)
					got := matMulBothKernels(t, a, b)
					assertSameBits(t, "Go kernel vs in-order", got.Data, naiveMatMul(a, b).Data)
				}
			}
		}
	}
}

// naiveMatMul is the in-order reference product: plain ijk with the k loop
// innermost and in order from +0 — the same per-element accumulation order
// as the tiled kernel, so the two agree bit for bit, signed zeros included
// (a NaN's payload aside).
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

// TestMatMulRowSubsetBitIdentical pins the kernel property gnn's family
// evaluation stands on (inplace.go): multiplying any subset of a's rows on
// its own gives the same bits as those rows of the full product, whatever
// the subset does to the 2-row micro-kernel's pairing, on the Go kernels
// and on the AVX kernel alike. The operands are ReLU-sparse (negatives
// clamped to +0), as a hidden layer's input is.
func TestMatMulRowSubsetBitIdentical(t *testing.T) {
	t.Run("float64", func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < equivTrials(150); trial++ {
			m, k, n := 1+rng.Intn(24), rng.Intn(33), 1+rng.Intn(70)
			a := randMat(rng, m, k)
			for i, v := range a.Data {
				a.Data[i] = max(v, 0)
			}
			b := randMat(rng, k, n)
			full := matMulBothKernels(t, a, b)

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
			part := matMulBothKernels(t, sub, b)
			for j, i := range rows {
				assertSameBits(t, "row subset", part.Row(j), full.Row(i))
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

// BenchmarkMatMulInto times the engine's matmul at the engine's shapes: an
// m-node projection m×24 · 24×24, and the backward pass's weight gradient
// 24×N · N×24 at N = 100 nodes. Each shape runs on the Go kernels and,
// where the CPU has AVX, on the AVX kernel; GMAC/s is multiply-adds per
// second.
func BenchmarkMatMulInto(b *testing.B) {
	shapes := []struct{ m, k, n int }{{1, 24, 24}, {2, 24, 24}, {10, 24, 24}, {96, 24, 24}, {24, 100, 24}}
	hasAVX := useAVX
	defer func() { useAVX = hasAVX }()
	for _, path := range []string{"go", "avx"} {
		if path == "avx" && !hasAVX {
			continue
		}
		for _, s := range shapes {
			b.Run(fmt.Sprintf("%s/%dx%dx%d", path, s.m, s.k, s.n), func(b *testing.B) {
				useAVX = path == "avx"
				rng := rand.New(rand.NewSource(26))
				x, w, dst := randMat(rng, s.m, s.k), randMat(rng, s.k, s.n), New(s.m, s.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(x, w, dst)
				}
				macs := float64(s.m*s.k*s.n) * float64(b.N)
				b.ReportMetric(macs/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
