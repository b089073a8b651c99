package tensor

// useAVX selects the AVX micro-kernels (tiled_amd64.s) for the 12-column
// blocks of matMulTiled and matMulTAdd. It is decided once from what the
// CPU reports: CPUID leaf 1 must show AVX (ECX bit 28) and OSXSAVE (bit
// 27), and XCR0 must show that the OS saves the SSE and AVX register state
// (bits 1 and 2). Tests flip it to run the Go kernels on the same operands.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuid1ECX()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbv0()&6 == 6
}

func cpuid1ECX() uint32
func xgetbv0() uint32

//go:noescape
func mul2x12(a0, a1, b, d0, d1 *float64, k, n, nblk int)

//go:noescape
func mul1x12(a, b, d *float64, k, n, nblk int)

// rows2AVX is tiledRows2 on the AVX kernel for a panel of nc columns, nc a
// positive multiple of avxCols. The index expressions bound every element
// the assembly reads or writes.
func rows2AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	_, _ = a[2*k-1], b[(k-1)*n+jc+nc-1]
	_ = dst[n+jc+nc-1]
	mul2x12(&a[0], &a[k], &b[jc], &dst[jc], &dst[n+jc], k, n, nc/avxCols)
}

// rows1AVX is rows2AVX for a single row.
func rows1AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	_, _ = a[k-1], b[(k-1)*n+jc+nc-1]
	_ = dst[jc+nc-1]
	mul1x12(&a[0], &b[jc], &dst[jc], k, n, nc/avxCols)
}

//go:noescape
func mul2x12T(a *float64, offs *int, b, d0, d1 *float64, k, n, nblk int)

//go:noescape
func mul1x12T(a *float64, offs *int, b, d *float64, k, n, nblk int)

// rows2TAVX is tiledRows2T on the AVX kernel for a panel of nc columns, nc a
// positive multiple of avxCols, and at least one offset. matMulTAdd has
// checked that every a[offs[t]+i+1] lies in a; the index expressions bound
// the rest of what the assembly reads or writes.
func rows2TAVX(a []float64, offs []int, i int, b []float64, n, jc, nc int, dst []float64) {
	_, _ = b[(len(offs)-1)*n+jc+nc-1], dst[n+jc+nc-1]
	mul2x12T(&a[i], &offs[0], &b[jc], &dst[jc], &dst[n+jc], len(offs), n, nc/avxCols)
}

// rows1TAVX is rows2TAVX for a single column of a.
func rows1TAVX(a []float64, offs []int, i int, b []float64, n, jc, nc int, dst []float64) {
	_, _ = b[(len(offs)-1)*n+jc+nc-1], dst[jc+nc-1]
	mul1x12T(&a[i], &offs[0], &b[jc], &dst[jc], len(offs), n, nc/avxCols)
}
