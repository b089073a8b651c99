package tensor

// This file holds the cache-blocked matrix-multiply kernel behind
// MatMulInto (inplace.go), the engine's only matmul.
//
// Blocking strategy, sized for the inference workload (k = Hidden ≤ 128,
// m up to a few hundred graph nodes):
//
//   - Column panels: b is walked in panels of ncPanel columns, so the
//     k×ncPanel working set of b (≤ 64 KiB at k = 128, float64) stays
//     L1/L2-resident while a's rows stream through it once per panel.
//   - Register blocking: a 2×4 micro-kernel keeps 8 partial sums in
//     registers across the whole k loop; each loaded a-value feeds four
//     multiply-adds and each b-value two, so the inner loop retires
//     8 FMAs per 6 loads instead of 1 per 2. 2×4 is the empirical
//     sweet spot for gc on amd64 — wider blocks (4×4, 2×8) need more
//     than the 16 vector registers and spill accumulators to the stack,
//     measuring slower than the naive kernel's working set.
//   - No k blocking: the k loop runs innermost and in order, so every
//     dst element accumulates its products in the same sequence as the
//     naive kernel. Sums can therefore differ from MatMul only
//     through the latter's skip-zero branch (signed-zero placement),
//     never by reassociation — TestTiledMatchesNaive pins this to
//     ≤ 1 ulp. At the depths the model uses (k ≤ 128) a micro-kernel's
//     a-strip is ≤ 2 KiB and needs no further blocking to stay
//     cache-resident.
//
// The remainder row (m odd) and columns (panel width mod 4) fall back to
// narrower unrolled kernels with identical k ordering.

const (
	mrTile  = 2  // micro-kernel rows: accumulator block height
	nrTile  = 4  // micro-kernel cols: accumulator block width
	ncPanel = 64 // b-panel width; k×ncPanel elements kept hot per panel
)

// matMulTiled computes dst = a×b over raw row-major slices: a is m×k, b is
// k×n, dst is m×n and fully overwritten. dst must not alias a or b.
func matMulTiled(a []float64, m, k int, b []float64, n int, dst []float64) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		clear(dst[:m*n])
		return
	}
	for jc := 0; jc < n; jc += ncPanel {
		nc := n - jc
		if nc > ncPanel {
			nc = ncPanel
		}
		i := 0
		for ; i+mrTile <= m; i += mrTile {
			tiledRows2(a[i*k:(i+2)*k], k, b, n, jc, nc, dst[i*n:(i+2)*n])
		}
		for ; i < m; i++ {
			tiledRows1(a[i*k:(i+1)*k], b, n, jc, nc, dst[i*n:(i+1)*n])
		}
	}
}

// tiledRows2 computes two output rows across one column panel: the dst rows
// hold a(2×k) × b[:, jc:jc+nc]. a is the 2×k row block, dst the 2×n row
// block.
func tiledRows2(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	a0, a1 := a[:k], a[k:2*k]
	d0, d1 := dst[:n], dst[n:2*n]
	j := jc
	for ; j+nrTile <= jc+nc; j += nrTile {
		var c00, c01, c02, c03 float64
		var c10, c11, c12, c13 float64
		for t := 0; t < k; t++ {
			bt := b[t*n+j : t*n+j+4 : t*n+j+4]
			b0, b1, b2, b3 := bt[0], bt[1], bt[2], bt[3]
			av := a0[t]
			c00 += av * b0
			c01 += av * b1
			c02 += av * b2
			c03 += av * b3
			av = a1[t]
			c10 += av * b0
			c11 += av * b1
			c12 += av * b2
			c13 += av * b3
		}
		d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
		d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
	}
	for ; j < jc+nc; j++ {
		var c0, c1 float64
		for t := 0; t < k; t++ {
			bv := b[t*n+j]
			c0 += a0[t] * bv
			c1 += a1[t] * bv
		}
		d0[j], d1[j] = c0, c1
	}
}

// tiledRows1 is the single-row remainder kernel: dst row = a(1×k) ×
// b[:, jc:jc+nc], with four-column unrolling where the panel allows.
func tiledRows1(a, b []float64, n, jc, nc int, dst []float64) {
	k := len(a)
	j := jc
	for ; j+nrTile <= jc+nc; j += nrTile {
		var c0, c1, c2, c3 float64
		for t := 0; t < k; t++ {
			bt := b[t*n+j : t*n+j+4 : t*n+j+4]
			av := a[t]
			c0 += av * bt[0]
			c1 += av * bt[1]
			c2 += av * bt[2]
			c3 += av * bt[3]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = c0, c1, c2, c3
	}
	for ; j < jc+nc; j++ {
		var c float64
		for t := 0; t < k; t++ {
			c += a[t] * b[t*n+j]
		}
		dst[j] = c
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
		s += v * b[i]
	}
	return s
}
