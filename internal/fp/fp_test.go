package fp

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func same(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

var (
	inf  = math.Inf(1)
	nan  = math.NaN()
	negZ = math.Copysign(0, -1)
)

func TestSpecialValues(t *testing.T) {
	tiny := 1.0 / (1 << 60)
	for _, c := range []struct {
		name    string
		f       func(float64) float64
		x, want float64
	}{
		{"Exp", Exp, 0, 1},
		{"Exp", Exp, negZ, 1},
		{"Exp", Exp, inf, inf},
		{"Exp", Exp, -inf, 0},
		{"Exp", Exp, nan, nan},
		{"Exp", Exp, 709.5, inf}, // amd64's overflow edge, short of ln(MaxFloat64)
		{"Exp", Exp, 710, inf},
		{"Exp", Exp, 1e300, inf},
		{"Exp", Exp, -745.13, 5e-324},
		{"Exp", Exp, -745.14, 0},
		{"Exp", Exp, -1e300, 0},
		{"Exp", Exp, -740, 4.2e-322}, // subnormal
		{"Log", Log, 1, 0},
		{"Log", Log, 0, -inf},
		{"Log", Log, negZ, -inf},
		{"Log", Log, -1, nan},
		{"Log", Log, -inf, nan},
		{"Log", Log, inf, inf},
		{"Log", Log, nan, nan},
		{"Log1p", Log1p, 0, 0},
		{"Log1p", Log1p, negZ, negZ},
		{"Log1p", Log1p, -1, -inf},
		{"Log1p", Log1p, -1.5, nan},
		{"Log1p", Log1p, -inf, nan},
		{"Log1p", Log1p, inf, inf},
		{"Log1p", Log1p, nan, nan},
		{"Log1p", Log1p, tiny, tiny}, // below 2**-54 log1p(x) is x
		{"Log1p", Log1p, -tiny, -tiny},
		{"Log2", Log2, 1, 0},
		{"Log2", Log2, 8, 3},
		{"Log2", Log2, 0.125, -3},
		{"Log2", Log2, 0, -inf},
		{"Log2", Log2, -2, nan},
		{"Log2", Log2, inf, inf},
		{"Log2", Log2, nan, nan},
	} {
		if got := c.f(c.x); !same(got, c.want) {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.x, got, c.want)
		}
	}
	for _, c := range []struct {
		x    float64
		n    int
		want float64
	}{
		{0.9, 0, 1}, {nan, 0, 1}, {1, -7, 1}, {nan, 2, nan}, {-3, 1, -3},
		{0, 3, 0}, {negZ, 3, negZ}, {negZ, 2, 0}, {0, -1, inf}, {negZ, -1, -inf}, {negZ, -2, inf},
		{inf, 2, inf}, {inf, -2, 0}, {-inf, 3, -inf}, {-inf, 2, inf}, {-inf, -3, negZ},
		{2, 1023, math.Ldexp(1, 1023)}, {2, 1024, inf}, {2, -1074, 5e-324}, {2, -1075, 0},
		{-1, 1 << 62, 1}, {-1, 1<<62 + 1, -1}, {0.5, 1 << 40, 0}, {1.5, math.MinInt64, 0},
	} {
		if got := Pow(c.x, c.n); !same(got, c.want) {
			t.Errorf("Pow(%v, %d) = %v, want %v", c.x, c.n, got, c.want)
		}
	}
}

// TestPinnedOutputs holds each function to the bits it returns at a fixed
// list of inputs. It runs on every architecture: a CPU whose arithmetic
// strays from the one answer fails here first.
func TestPinnedOutputs(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(float64) float64
		x    float64
		bits uint64
	}{
		{"Exp", Exp, probe, probeBits},
		{"Exp", Exp, -1, 0x3fd78b56362cef38},
		{"Exp", Exp, 0.5, 0x3ffa61298e1e069c},
		{"Exp", Exp, 1, 0x4005bf0a8b145769},
		{"Exp", Exp, 2.5, 0x40285d6fd931e0bb},
		{"Exp", Exp, -10.25, 0x3f02899a7a835446},
		{"Exp", Exp, 88.7, 0x47ef4705bbffae5c},
		{"Exp", Exp, 700, 0x7f0d945df4f8ec8e},
		{"Exp", Exp, -700, 0x00d14f2b0fb9307f},
		{"Exp", Exp, -740, 0x0000000000000055},
		{"Exp", Exp, -745.1, 0x0000000000000001},
		{"Exp", Exp, 1e-10, 0x3ff000000006df38},
		{"Exp", Exp, -3.3e-05, 0x3fefffbacb8d5ec0},
		{"Log", Log, 0.5, 0xbfe62e42fefa39ef},
		{"Log", Log, 3, 0x3ff193ea7aad030a},
		{"Log", Log, 10, 0x40026bb1bbb55516},
		{"Log", Log, 1e-09, 0xc034b927f32bffb8},
		{"Log", Log, 0.001, 0xc01ba18a998fffa0},
		{"Log", Log, 123456.789, 0x40277281cad8a844},
		{"Log", Log, 1e+300, 0x4085963447f87fb5},
		{"Log", Log, 0.7071, 0xbfd62e6b3842a25e},
		{"Log1p", Log1p, 1e-10, 0x3ddb7cdfd9d1d693},
		{"Log1p", Log1p, 1e-05, 0x3ee4f8aea9ae7317},
		{"Log1p", Log1p, 0.25, 0x3fcc8ff7c79a9a22},
		{"Log1p", Log1p, -0.25, 0xbfd269621134db92},
		{"Log1p", Log1p, 0.5, 0x3fd9f323ecbf984c},
		{"Log1p", Log1p, 1, 0x3fe62e42fefa39ef},
		{"Log1p", Log1p, 99, 0x40126bb1bbb55516},
		{"Log1p", Log1p, 4096, 0x4020a2d23e3bb61e},
		{"Log1p", Log1p, 1e+20, 0x4047069e2aa2aa5b},
		{"Log2", Log2, 3, 0x3ff95c01a39fbd69},
		{"Log2", Log2, 5, 0x4002934f0979a371},
		{"Log2", Log2, 22, 0x4011d6753e032ea1},
		{"Log2", Log2, 1000, 0x4023ee7b471b3a95},
		{"Log2", Log2, 0.3, 0xbffbca9c6f53897a},
		{"Pow0.9", func(n float64) float64 { return Pow(0.9, int(n)) }, 7, 0x3fde9c6a99d1cdc0},
		{"Pow0.999", func(n float64) float64 { return Pow(0.999, int(n)) }, 1000, 0x3fd788526411edac},
		{"Pow1.5", func(n float64) float64 { return Pow(1.5, int(n)) }, 40, 0x416517168a4523fd},
	} {
		if got := c.f(c.x); math.Float64bits(got) != c.bits {
			t.Errorf("%s(%v) = %#016x (%v), want %#016x", c.name, c.x, math.Float64bits(got), got, c.bits)
		}
	}
}

// probe is an input on which amd64's two math.Exp paths (with and without
// FMA) differ; probeBits is the FMA path's answer, which Exp transliterates.
const (
	probe     = -254.7185559375382
	probeBits = 0x28f6ec9b8a667ffd
)

// TestMatchesMath compares each function with package math over at least
// 4 M inputs drawn from its callers' domains, wherever math runs the
// algorithm that was transliterated: Exp where math.Exp takes amd64's FMA
// path (not under GODEBUG=cpu.fma=off, not on other architectures), the
// rest on amd64, whose compiler fuses nothing in Go's portable sources.
func TestMatchesMath(t *testing.T) {
	const n = 4 << 20
	rng := rand.New(rand.NewSource(1))
	check := func(t *testing.T, name string, f, ref func(float64) float64, x float64, bad *int) {
		if got, want := f(x), ref(x); !same(got, want) {
			if *bad++; *bad <= 10 {
				t.Errorf("%s(%v) = %v, math gives %v", name, x, got, want)
			}
		}
	}
	t.Run("Exp", func(t *testing.T) {
		if math.Float64bits(math.Exp(probe)) != probeBits {
			t.Skip("math.Exp is not amd64's FMA path here")
		}
		bad := 0
		for i := 0; i < n; i++ {
			check(t, "Exp", Exp, math.Exp, rng.Float64()*1400-700, &bad)
		}
		for i := 0; i < n/2; i++ { // softmax logits (≤ 0), noise and targets
			x := rng.NormFloat64() * 20
			if i&1 == 0 {
				x = -math.Abs(x)
			}
			check(t, "Exp", Exp, math.Exp, x, &bad)
		}
		for _, r := range [][2]float64{{709.78, 710}, {-745.14, -745.13}, {-746, -700}, {709, 709.9}} {
			for i := 0; i < 1<<16; i++ {
				check(t, "Exp", Exp, math.Exp, r[0]+(r[1]-r[0])*float64(i)/(1<<16), &bad)
			}
		}
		if bad > 0 {
			t.Errorf("%d mismatches", bad)
		}
	})
	t.Run("logs", func(t *testing.T) {
		if runtime.GOARCH != "amd64" {
			t.Skip("math's logs are Go's portable sources unfused only on amd64")
		}
		// Positive normals at every exponent, and the ranges the callers
		// clamp to (≥ 1e-9 for metrics, ≥ 1e-3 for targets). Subnormals are
		// left out of Log's comparison: amd64's math.Log assembly is wrong
		// on them (ln 5.08e-309 gives -708.88 against the true -709.87),
		// and no caller reaches them.
		normal := func() float64 {
			if rng.Intn(2) == 0 {
				return rng.Float64() * 100
			}
			return math.Ldexp(1+rng.Float64(), rng.Intn(2044)-1022)
		}
		bad := 0
		for i := 0; i < n; i++ {
			x := normal()
			if x < 0x1p-1022 {
				continue
			}
			check(t, "Log", Log, math.Log, x, &bad)
			check(t, "Log2", Log2, math.Log2, x, &bad)
		}
		for i := 0; i < n; i++ { // weights, counts and |literals| ≥ 0, plus (-1, 1)
			x := normal()
			switch i % 4 {
			case 0:
				x = rng.Float64()*2 - 1
			case 1:
				x = float64(rng.Intn(1 << 20))
			}
			check(t, "Log1p", Log1p, math.Log1p, x, &bad)
		}
		for _, beta := range []float64{0.9, 0.999} { // Adam's bias correction
			for step := 1; step <= 1e6; step++ {
				check(t, "Pow", func(x float64) float64 { return Pow(x, step) },
					func(x float64) float64 { return math.Pow(x, float64(step)) }, beta, &bad)
			}
		}
		if bad > 0 {
			t.Errorf("%d mismatches", bad)
		}
	})
}

var sink float64

// BenchmarkExp times Exp against math.Exp over softmax-like inputs.
func BenchmarkExp(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(1))
	for i := range xs {
		xs[i] = -rng.ExpFloat64() * 4
	}
	for _, c := range []struct {
		name string
		f    func(float64) float64
	}{{"fp", Exp}, {"math", math.Exp}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += c.f(xs[i&1023])
			}
		})
	}
}
