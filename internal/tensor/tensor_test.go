package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("shape = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Error("Row is not a view")
	}
}

func TestFromData(t *testing.T) {
	d := FromData(2, 2, []float64{1, 2, 3, 4})
	if d.At(0, 1) != 2 || d.At(1, 0) != 3 || d.At(1, 1) != 4 {
		t.Errorf("FromData content wrong: %v", d)
	}
	if s := Scalar(3.5); s.Rows != 1 || s.Cols != 1 || s.At(0, 0) != 3.5 {
		t.Error("Scalar wrong")
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { New(-1, 2) },
		func() { FromData(2, 2, []float64{1}) },
		func() { MatMul(New(2, 3), New(2, 3)) },
		func() { New(2, 2).AddInPlace(New(3, 3)) },
		func() { New(1, 2).AxpyInPlace(1, New(2, 1)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	b := FromData(2, 2, []float64{5, 6, 7, 8})
	c := MatMul(a, b)
	want := FromData(2, 2, []float64{19, 22, 43, 50})
	for i := range want.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("MatMul = %v, want %v", c, want)
		}
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		a := New(n, n)
		a.RandN(rng, 1)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		prod := MatMul(a, id)
		for i := range a.Data {
			if math.Abs(prod.Data[i]-a.Data[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(7, 3)
	m.RandN(rng, 1)
	tt := Transpose(Transpose(m))
	for i := range m.Data {
		if tt.Data[i] != m.Data[i] {
			t.Fatal("transpose not involutive")
		}
	}
	tr := Transpose(m)
	if tr.Rows != 3 || tr.Cols != 7 {
		t.Errorf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 5) != m.At(5, 2) {
		t.Error("transpose content wrong")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromData(2, 2, []float64{1, 2, 3, 4})
	b := FromData(2, 2, []float64{10, 20, 30, 40})
	if s := Add(a, b); s.At(1, 1) != 44 {
		t.Errorf("Add = %v", s)
	}
	c := a.Clone()
	c.ScaleInPlace(2)
	if c.At(0, 1) != 4 || a.At(0, 1) != 2 {
		t.Error("ScaleInPlace/Clone broken")
	}
	c.AxpyInPlace(0.5, b)
	if c.At(0, 0) != 2+5 {
		t.Errorf("Axpy = %v", c)
	}
	c.Zero()
	if c.Norm2() != 0 {
		t.Error("Zero broken")
	}
}

func TestReductions(t *testing.T) {
	m := FromData(2, 2, []float64{1, -2, 3, -4})
	if math.Abs(m.Norm2()-math.Sqrt(30)) > 1e-12 {
		t.Errorf("Norm2 = %v", m.Norm2())
	}
}

func TestGlorotAndRandNDeterministic(t *testing.T) {
	a := New(10, 10)
	b := New(10, 10)
	a.Glorot(rand.New(rand.NewSource(7)))
	b.Glorot(rand.New(rand.NewSource(7)))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Glorot not deterministic per seed")
		}
	}
	limit := math.Sqrt(6.0 / 20)
	for _, v := range a.Data {
		if math.Abs(v) > limit {
			t.Errorf("Glorot out of range: %v > %v", v, limit)
		}
	}
	c := New(4, 4)
	c.RandN(rand.New(rand.NewSource(3)), 0.1)
	if c.Norm2() == 0 {
		t.Error("RandN produced all zeros")
	}
}

func TestSameShape(t *testing.T) {
	if !New(2, 3).SameShape(New(2, 3)) {
		t.Error("same shapes reported different")
	}
	if New(2, 3).SameShape(New(3, 2)) {
		t.Error("different shapes reported same")
	}
}

func TestStringRendering(t *testing.T) {
	small := FromData(1, 2, []float64{1, 2})
	if s := small.String(); s == "" {
		t.Error("empty String")
	}
	big := New(100, 100)
	if s := big.String(); s != "Matrix(100x100)" {
		t.Errorf("big String = %q", s)
	}
}
