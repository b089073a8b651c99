//go:build !amd64

package tensor

// Off amd64 there is no vector kernel: matMulTiled runs the Go kernels
// alone, and these are never called.
var useAVX = false

func rows2AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}

func rows1AVX(a []float64, k int, b []float64, n, jc, nc int, dst []float64) {
	panic("tensor: no AVX kernel on this architecture")
}
