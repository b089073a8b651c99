// Package fp holds the only transcendental functions on the numeric path:
// the exp of every attention softmax, the logs that carry ParaGraph's
// weights (§III-A.3) and the training targets, and the integer power of
// Adam's bias correction.
//
// The standard library's versions of these are not one function. On amd64,
// math.Exp picks one of two polynomial evaluations from CPUID; on arm64,
// ppc64le, s390x and riscv64 the compiler fuses multiply-adds inside Go's
// portable log and log1p, and s390x has assembly for both logs. Each of
// these gives a different last bit, and a last bit reaches every answer,
// checkpoint, simulated target and golden row here. The functions below are
// one algorithm on every CPU and architecture:
//
//   - Exp is amd64 math.Exp's FMA path written in Go on math.FMA, which the
//     Go specification rounds once everywhere (in software where the CPU
//     has no FMA instruction);
//   - Log, Log1p, Log2 and Pow are copies of Go's portable source in which
//     every product that meets an addition is rounded by an explicit
//     float64(...) conversion, which the Go specification says forbids
//     fusion.
//
// On an amd64 CPU with FMA each returns math's bits: TestMatchesMath checks
// millions of inputs. TestNoFusedMultiplyAdd keeps fusion out of this
// module's packages, and TestOnlyExactMathOutsideFP keeps every other
// package to math's exact functions.
package fp

import "math"

// Exp returns e**x. It is a transliteration of the FMA path of amd64
// math.Exp's assembly (Shibata's method: reduce by ln 2, evaluate a Taylor
// polynomial at x/16, square four times, scale by 2**k). Like that path it
// returns +Inf from x ≈ 709.44, a little short of the largest finite exp,
// and rounds subnormal results twice.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920 // 1/ln 2
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
		// Below this, k ≤ -1076 and the scaling below returns 0, as the
		// assembly does; returning early keeps k within int32.
		underflow = -746
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x == 0:
		// A softmax segment's largest logit, and most segments hold one
		// edge: most calls. The polynomial below gives the same 1.
		return 1
	case x < underflow: // includes -Inf
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	k := int32(math.RoundToEven(float64(log2e * x))) // CVTSD2SL: half to even
	fk := float64(k)
	r := math.FMA(-fk, ln2U, x)
	r = math.FMA(-fk, ln2L, r)
	r *= 0.0625
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	r = float64(r * p)
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = float64(r * (r + 2))
	r = math.FMA(r, r+2, 1.0)
	// r × 2**k, through one subnormal step where k is below -1022.
	e := k + 0x3ff
	switch {
	case e >= 0x7ff:
		return math.Inf(1)
	case e <= 0:
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+0x3fe)<<52))
		e = 1
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// Log returns the natural logarithm of x: Go's portable log (FreeBSD's
// e_log.c). amd64's math.Log assembly agrees with it on every normal x.
func Log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 /* 3fe62e42 fee00000 */
		ln2Lo = 1.90821492927058770002e-10 /* 3dea39ef 35793c76 */
		l1    = 6.666666666666735130e-01   /* 3FE55555 55555593 */
		l2    = 3.999999999940941908e-01   /* 3FD99999 9997FA04 */
		l3    = 2.857142874366239149e-01   /* 3FD24924 94229359 */
		l4    = 2.222219843214978396e-01   /* 3FCC71C5 1D8E78AF */
		l5    = 1.818357216161805012e-01   /* 3FC74664 96CB03DE */
		l6    = 1.531383769920937332e-01   /* 3FC39A09 D078C69F */
		l7    = 1.479819860511658591e-01   /* 3FC2F112 DF3E5244 */
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	R := t1 + t2
	hfsq := float64(0.5 * f * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}

// Log1p returns log(1 + x), accurate also for x near zero: Go's portable
// log1p (FreeBSD's s_log1p.c), which amd64 runs as well.
func Log1p(x float64) float64 {
	const (
		sqrt2M1     = 4.142135623730950488017e-01  // Sqrt(2)-1 = 0x3fda827999fcef34
		sqrt2HalfM1 = -2.928932188134524755992e-01 // Sqrt(2)/2-1 = 0xbfd2bec333018866
		small       = 1.0 / (1 << 29)              // 2**-29 = 0x3e20000000000000
		tiny        = 1.0 / (1 << 54)              // 2**-54
		two53       = 1 << 53                      // 2**53
		ln2Hi       = 6.93147180369123816490e-01   // 3fe62e42fee00000
		ln2Lo       = 1.90821492927058770002e-10   // 3dea39ef35793c76
		lp1         = 6.666666666666735130e-01     // 3FE5555555555593
		lp2         = 3.999999999940941908e-01     // 3FD999999997FA04
		lp3         = 2.857142874366239149e-01     // 3FD2492494229359
		lp4         = 2.222219843214978396e-01     // 3FCC71C51D8E78AF
		lp5         = 1.818357216161805012e-01     // 3FC7466496CB03DE
		lp6         = 1.531383769920937332e-01     // 3FC39A09D078C69F
		lp7         = 1.479819860511658591e-01     // 3FC2F112DF3E5244
	)
	switch {
	case x < -1 || math.IsNaN(x): // includes -Inf
		return math.NaN()
	case x == -1:
		return math.Inf(-1)
	case math.IsInf(x, 1):
		return math.Inf(1)
	}

	absx := math.Abs(x)
	var f float64
	var iu uint64
	k := 1
	if absx < sqrt2M1 { // |x| < Sqrt(2)-1
		if absx < small { // |x| < 2**-29
			if absx < tiny { // |x| < 2**-54
				return x
			}
			return x - float64(x*x*0.5)
		}
		if x > sqrt2HalfM1 { // Sqrt(2)/2-1 < x < Sqrt(2)-1
			k = 0
			f = x
			iu = 1
		}
	}
	var c float64
	if k != 0 {
		var u float64
		if absx < two53 {
			u = 1.0 + x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			// correction term
			if k > 0 {
				c = 1.0 - (u - x)
			} else {
				c = x - (u - 1.0)
			}
			c /= u
		} else {
			u = x
			iu = math.Float64bits(u)
			k = int((iu >> 52) - 1023)
			c = 0
		}
		iu &= 0x000fffffffffffff
		if iu < 0x0006a09e667f3bcd { // mantissa of Sqrt(2)
			u = math.Float64frombits(iu | 0x3ff0000000000000) // normalize u
		} else {
			k++
			u = math.Float64frombits(iu | 0x3fe0000000000000) // normalize u/2
			iu = (0x0010000000000000 - iu) >> 2
		}
		f = u - 1.0 // Sqrt(2)/2 < u < Sqrt(2)
	}
	fk := float64(k)
	hfsq := float64(0.5 * f * f)
	if iu == 0 { // |f| < 2**-20
		if f == 0 {
			if k == 0 {
				return 0
			}
			c += float64(fk * ln2Lo)
			return float64(fk*ln2Hi) + c
		}
		R := float64(hfsq * (1.0 - float64(0.66666666666666666*f))) // avoid division
		if k == 0 {
			return f - R
		}
		return float64(fk*ln2Hi) - ((R - (float64(fk*ln2Lo) + c)) - f)
	}
	s := f / (2.0 + f)
	z := float64(s * s)
	R := float64(z * (lp1 + float64(z*(lp2+float64(z*(lp3+float64(z*(lp4+float64(z*(lp5+float64(z*(lp6+float64(z*lp7)))))))))))))
	if k == 0 {
		return f - (hfsq - float64(s*(hfsq+R)))
	}
	return float64(fk*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + (float64(fk*ln2Lo) + c))) - f)
}

// Log2 returns the binary logarithm of x, exact at powers of two: Go's
// portable log2 on Log.
func Log2(x float64) float64 {
	frac, exp := math.Frexp(x)
	if frac == 0.5 {
		return float64(exp - 1)
	}
	return float64(Log(frac)*(1/math.Ln2)) + float64(exp)
}

// Pow returns x**n for an integer n: the integer-exponent path of Go's
// portable pow, which multiplies in successive squarings of Frexp's
// fraction and scales by the accumulated power of two once at the end.
// Zeros, infinities and NaN come out of the same loop as math.Pow's
// special cases give them.
func Pow(x float64, n int) float64 {
	// ans = a1 * 2**ae
	a1 := 1.0
	ae := 0
	x1, xe := math.Frexp(x)
	i := uint64(n)
	if n < 0 {
		i = -i
	}
	for ; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// xe would overflow the shift below; Ldexp under- or
			// overflows from this lower bound on ae already.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	if n < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}
