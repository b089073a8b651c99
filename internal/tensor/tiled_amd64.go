package tensor

// useAVX selects the AVX micro-kernels (tiled_amd64.s) for matMul's
// 12-column blocks. It is decided once from what the CPU reports: CPUID
// leaf 1 must show AVX (ECX bit 28) and OSXSAVE (bit 27), and XCR0 must
// show that the OS saves the SSE and AVX register state (bits 1 and 2).
// Tests flip it to run the Go kernels on the same operands.
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
func mul2x12(a0, a1 *float64, offs *int, b, d0, d1 *float64, k, n, nblk int, add bool)

//go:noescape
func mul1x12(a *float64, offs *int, b, d *float64, k, n, nblk int, add bool)

// rows2AVX is rows2 on the AVX kernel for a panel of nc columns, nc a
// positive multiple of avxCols, and at least one offset. matMul's caller
// has checked that every a[a0+offs[t]] and a[a1+offs[t]] lies in a; the
// index expressions bound the rest of what the assembly reads or writes.
func rows2AVX(a []float64, a0, a1 int, offs []int, b []float64, n, jc, nc int, d0, d1 []float64, add bool) {
	_, _ = b[(len(offs)-1)*n+jc+nc-1], d0[jc+nc-1]
	_ = d1[jc+nc-1]
	mul2x12(&a[a0], &a[a1], &offs[0], &b[jc], &d0[jc], &d1[jc], len(offs), n, nc/avxCols, add)
}

// rows1AVX is rows2AVX for a single output row.
func rows1AVX(a []float64, a0 int, offs []int, b []float64, n, jc, nc int, d0 []float64, add bool) {
	_, _ = b[(len(offs)-1)*n+jc+nc-1], d0[jc+nc-1]
	mul1x12(&a[a0], &offs[0], &b[jc], &d0[jc], len(offs), n, nc/avxCols, add)
}
