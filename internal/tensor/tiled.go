package tensor

import (
	"math/bits"
	"sync/atomic"
)

// This file holds the engine's one matrix-multiply kernel, matMul, behind
// all three entry points in inplace.go: MatMulInto (dense products),
// MatMulRowsInto (listed rows of a into listed rows of dst, the forward's
// partial projections and the backward's input gradients) and
// AddMatMulTInto (the backward's weight gradients dst += a[rows]ᵀ×b). It
// addresses its left operand through offsets instead of reading a
// materialised one: output row i reads the value paired with b's row t at
// a[base_i + offs[t]], where base_i is the row's start (a row-major a, offs
// 0, 1, …, k−1) or its column (aᵀ, offs the starts of the listed rows). So
// no row is gathered, no transpose is built and no result is staged before
// it reaches its row of dst.
//
// Blocking strategy, sized for the inference workload (k = Hidden ≤ 128,
// m up to a few hundred graph nodes):
//
//   - Column panels: b is walked in panels of ncPanel columns, so the
//     k×ncPanel working set of b (≤ 60 KiB at k = 128, float64) stays
//     L1/L2-resident while a's rows stream through it once per panel.
//   - Register blocking: on a CPU with AVX (tiled_amd64.go) each panel's
//     12-column blocks run a 2×12 micro-kernel in assembly, six 4-wide
//     accumulators per row pair, with a 1×12 kernel for an odd last row.
//     The Go kernels below take the panel's remaining columns (n mod 12),
//     and every column on CPUs without AVX and off amd64: a 2×4 block
//     keeps 8 partial sums in registers across the whole k loop, so each
//     loaded a-value feeds four multiply-adds and each b-value two (8 per
//     6 loads instead of 1 per 2). The Go kernels write
//     `c += float64(av * b)`: the explicit conversion rounds the product,
//     so gc emits a separate multiply and add, each rounded, on every
//     architecture (it would fuse them on arm64, ppc64le, s390x and
//     riscv64); the AVX kernel keeps the same two roundings (VMULPD,
//     VADDPD).
//   - No k blocking: the k loop runs innermost and in t order from a +0
//     accumulator, in every kernel, so every dst element accumulates its
//     products in the same sequence whichever kernel computes it, and the
//     AVX and Go kernels give the same bits (TestAVXMatchesGo). The sum is
//     then stored, or added into dst once (d + sum). Against the naive
//     MatMul, sums can differ only through the latter's skip-zero branch
//     (signed-zero placement), never by reassociation —
//     TestTiledMatchesNaive pins this to ≤ 1 ulp. At the depths the model
//     uses (k ≤ 128) a micro-kernel's a-strip is ≤ 2 KiB and needs no
//     further blocking to stay cache-resident.
//
// In Go, the remainder row (m odd) and columns (width mod 4) fall back to
// narrower unrolled kernels with identical k ordering.

const (
	mrTile  = 2  // micro-kernel rows: accumulator block height
	nrTile  = 4  // Go micro-kernel cols: accumulator block width
	avxCols = 12 // AVX micro-kernel cols: three 4-wide vectors
	ncPanel = 60 // b-panel width, a multiple of avxCols; k×ncPanel elements kept hot
)

// seq holds 0, 1, 2, …: the offsets of a dense row. Every call shares it
// read-only; a call that needs a longer prefix publishes a longer copy.
var seq atomic.Pointer[[]int]

// identity returns 0, 1, …, k−1 from seq.
func identity(k int) []int {
	for {
		p := seq.Load()
		if p != nil && len(*p) >= k {
			return (*p)[:k]
		}
		s := make([]int, 1<<bits.Len(uint(k)))
		for i := range s {
			s[i] = i
		}
		if seq.CompareAndSwap(p, &s) {
			return s[:k]
		}
	}
}

// at is rows[i], or i when rows is nil.
func at(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
}

// matMul computes m output rows over raw row-major slices, k = len(offs):
// for i < m and j < n it sets dst[at(dRows, i)·n + j] to
// Σ_t a[at(aRows, i)·aStride + offs[t]] · b[t·n + j], summed from +0 in t
// order, or, with add, adds that sum into it. The caller has checked that
// every element read or written lies in a, b and dst; dRows must not
// repeat a row, and dst must not alias a or b.
func matMul(a []float64, aRows []int, aStride int, offs []int, b []float64, n int, dst []float64, dRows []int, m int, add bool) {
	for jc := 0; jc < n; jc += ncPanel {
		nc := min(n-jc, ncPanel)
		nv := 0 // the panel's leading columns the AVX kernel computes
		if useAVX && len(offs) > 0 {
			nv = nc - nc%avxCols
		}
		i := 0
		for ; i+mrTile <= m; i += mrTile {
			a0, a1 := at(aRows, i)*aStride, at(aRows, i+1)*aStride
			r0, r1 := at(dRows, i)*n, at(dRows, i+1)*n
			d0, d1 := dst[r0:r0+n], dst[r1:r1+n]
			if nv > 0 {
				rows2AVX(a, a0, a1, offs, b, n, jc, nv, d0, d1, add)
			}
			rows2(a, a0, a1, offs, b, n, jc+nv, nc-nv, d0, d1, add)
		}
		if i < m {
			a0, r0 := at(aRows, i)*aStride, at(dRows, i)*n
			d0 := dst[r0 : r0+n]
			if nv > 0 {
				rows1AVX(a, a0, offs, b, n, jc, nv, d0, add)
			}
			rows1(a, a0, offs, b, n, jc+nv, nc-nv, d0, add)
		}
	}
}

// rows2 computes two output rows across columns jc…jc+nc−1 of one panel:
// d0[j] and d1[j] (=, or += with add) Σ_t a[a0+offs[t]]·b[t, j] and
// Σ_t a[a1+offs[t]]·b[t, j].
func rows2(a []float64, a0, a1 int, offs []int, b []float64, n, jc, nc int, d0, d1 []float64, add bool) {
	j := jc
	for ; j+nrTile <= jc+nc; j += nrTile {
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		for t, off := range offs {
			bt := b[t*n+j : t*n+j+4 : t*n+j+4]
			b0, b1, b2, b3 := bt[0], bt[1], bt[2], bt[3]
			av := a[a0+off]
			c00 += float64(av * b0)
			c01 += float64(av * b1)
			c02 += float64(av * b2)
			c03 += float64(av * b3)
			av = a[a1+off]
			c10 += float64(av * b0)
			c11 += float64(av * b1)
			c12 += float64(av * b2)
			c13 += float64(av * b3)
		}
		if add {
			c00, c01, c02, c03 = d0[j]+c00, d0[j+1]+c01, d0[j+2]+c02, d0[j+3]+c03
			c10, c11, c12, c13 = d1[j]+c10, d1[j+1]+c11, d1[j+2]+c12, d1[j+3]+c13
		}
		d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
		d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
	}
	for ; j < jc+nc; j++ {
		var c0, c1 float64
		for t, off := range offs {
			bv := b[t*n+j]
			c0 += float64(a[a0+off] * bv)
			c1 += float64(a[a1+off] * bv)
		}
		if add {
			c0, c1 = d0[j]+c0, d1[j]+c1
		}
		d0[j], d1[j] = c0, c1
	}
}

// rows1 is rows2 for a single output row, the remainder of an odd m.
func rows1(a []float64, a0 int, offs []int, b []float64, n, jc, nc int, d0 []float64, add bool) {
	j := jc
	for ; j+nrTile <= jc+nc; j += nrTile {
		var c0, c1, c2, c3 float64
		for t, off := range offs {
			bt := b[t*n+j : t*n+j+4 : t*n+j+4]
			av := a[a0+off]
			c0 += float64(av * bt[0])
			c1 += float64(av * bt[1])
			c2 += float64(av * bt[2])
			c3 += float64(av * bt[3])
		}
		if add {
			c0, c1, c2, c3 = d0[j]+c0, d0[j+1]+c1, d0[j+2]+c2, d0[j+3]+c3
		}
		d0[j], d0[j+1], d0[j+2], d0[j+3] = c0, c1, c2, c3
	}
	for ; j < jc+nc; j++ {
		var c float64
		for t, off := range offs {
			c += float64(a[a0+off] * b[t*n+j])
		}
		if add {
			c = d0[j] + c
		}
		d0[j] = c
	}
}

// Dot returns the inner product of two equal-length vectors, accumulating
// in index order (the order the attention-score dots are specified in).
func Dot(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	b = b[:len(a)]
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}
