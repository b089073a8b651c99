//go:build !amd64

package tensor

// Off amd64 there is no vector kernel: matMul runs the Go kernels alone,
// and these are never called.
var useAVX = false

func rows2AVX(a []float64, a0, a1 int, offs []int, b []float64, n, jc, nc int, d0, d1 []float64, add bool) {
	panic("tensor: no AVX kernel on this architecture")
}

func rows1AVX(a []float64, a0 int, offs []int, b []float64, n, jc, nc int, d0 []float64, add bool) {
	panic("tensor: no AVX kernel on this architecture")
}
