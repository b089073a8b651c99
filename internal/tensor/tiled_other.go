//go:build !amd64

package tensor

// Off amd64 there is no vector kernel: matMulTiled and matMulTAdd run the
// Go kernels alone, and these are never called.
var useAVX = false

func rows2AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func rows1AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func rows2TAVX(a []float64, offs []int, i int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func rows1TAVX(a []float64, offs []int, i int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}
