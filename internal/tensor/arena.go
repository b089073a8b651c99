package tensor

import "math/bits"

// Arena recycles float64 buffers in power-of-two size classes.
// A forward workspace (internal/gnn) sizes its scratch matrices through one
// arena, so when request graph shapes vary the outgrown buffers are reused
// for the next shape instead of becoming garbage — the whole pass keeps
// riding one flat set of allocations.
//
// An Arena is not safe for concurrent use; each workspace owns its own.
type Arena struct {
	classes map[int][][]float64
}

// sizeClass rounds n up to the next power of two (minimum 8, so tiny
// vectors share a class instead of fragmenting the free lists).
func sizeClass(n int) int {
	if n <= 8 {
		return 8
	}
	return 1 << bits.Len(uint(n-1))
}

// Get returns a length-n buffer, reusing a recycled one from n's size class
// when available. Contents are unspecified; callers overwrite.
func (a *Arena) Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if bufs := a.classes[c]; len(bufs) > 0 {
		buf := bufs[len(bufs)-1]
		a.classes[c] = bufs[:len(bufs)-1]
		return buf[:n]
	}
	return make([]float64, n, c)
}

// Put recycles buf into its size class for a later Get. Buffers whose
// capacity is not a power-of-two class (built outside the arena) are filed
// under the largest class they can fully serve.
func (a *Arena) Put(buf []float64) {
	c := cap(buf)
	if c < 8 {
		return
	}
	class := 1 << (bits.Len(uint(c)) - 1) // largest power of two <= cap
	if class < 8 {
		return
	}
	if a.classes == nil {
		a.classes = map[int][][]float64{}
	}
	a.classes[class] = append(a.classes[class], buf[:0])
}

// GetMatrix shapes m as rows×cols backed by an arena buffer, recycling m's
// previous backing array first. Use it to (re)size workspace matrices: in
// steady state (same shape as the last call) it touches nothing.
func (a *Arena) GetMatrix(m *Matrix, rows, cols int) {
	m.Data = a.GetSlice(m.Data, rows*cols)
	m.Rows, m.Cols = rows, cols
}

// GetSlice returns a length-n slice, recycling prev through the arena. A
// steady-state call (cap(prev) >= n) reslices without touching the free
// lists.
func (a *Arena) GetSlice(prev []float64, n int) []float64 {
	if cap(prev) >= n {
		return prev[:n]
	}
	a.Put(prev)
	return a.Get(n)
}
