// Package exact provides Num, the exact rational number the LP kernel
// (internal/lp) and the Gaussian elimination (internal/linalg) compute on.
//
// Every linear program in this repository has coefficients in {−1, 0, 1} and
// only a right-hand side or cost vector of 53-bit dyadic log sizes, so almost
// every value met during a solve is a small integer or a small fraction. A
// Num therefore holds an int64 numerator and denominator in lowest terms by
// value, and becomes a heap *big.Rat only when a product or sum leaves 63
// bits. The choice is made per value from the overflow the arithmetic
// observes, and a wide result that fits again shrinks back, so each value has
// exactly one representation. All operations are exact; a Num is immutable.
package exact

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
)

// Num is an exact rational. The zero value is 0.
type Num struct {
	// Small form (r == nil): the value is n/d in lowest terms with
	// |n| ≤ MaxInt64 (never MinInt64, so negation cannot overflow) and
	// d ≥ 1; d == 0 stands for 1 so that the zero value is the number 0.
	n, d int64
	// Wide form (r != nil): the value is *r, which does not fit the small
	// form. r is shared between copies of the Num and never mutated.
	r *big.Rat
}

// Int returns the integer v.
func Int(v int64) Num {
	if v == math.MinInt64 {
		return Num{r: new(big.Rat).SetInt64(v)}
	}
	return Num{n: v, d: 1}
}

// FromRat returns the value of r. r is not retained.
func FromRat(r *big.Rat) Num {
	if x, ok := small(r); ok {
		return x
	}
	return Num{r: new(big.Rat).Set(r)}
}

// small returns r in the small form when it fits.
func small(r *big.Rat) (Num, bool) {
	n := r.Num()
	if !n.IsInt64() || n.Int64() == math.MinInt64 {
		return Num{}, false
	}
	if r.IsInt() {
		return Num{n: n.Int64(), d: 1}, true
	}
	d := r.Denom()
	if !d.IsInt64() {
		return Num{}, false
	}
	return Num{n: n.Int64(), d: d.Int64()}, true
}

// shrink takes ownership of a freshly computed z and returns it in the
// small form when it fits, so that a wide Num is never a small value.
func shrink(z *big.Rat) Num {
	if x, ok := small(z); ok {
		return x
	}
	return Num{r: z}
}

func (x Num) den() int64 {
	if x.d == 0 {
		return 1
	}
	return x.d
}

// wide returns x as a *big.Rat the caller must not modify.
func (x Num) wide() *big.Rat {
	if x.r != nil {
		return x.r
	}
	return new(big.Rat).SetFrac64(x.n, x.den())
}

// SetRat sets z to x and returns z.
func (x Num) SetRat(z *big.Rat) *big.Rat {
	if x.r != nil {
		return z.Set(x.r)
	}
	if d := x.den(); d != 1 {
		return z.SetFrac64(x.n, d)
	}
	return z.SetInt64(x.n)
}

// Sign returns −1, 0 or +1.
func (x Num) Sign() int {
	if x.r != nil {
		return x.r.Sign()
	}
	switch {
	case x.n < 0:
		return -1
	case x.n > 0:
		return 1
	}
	return 0
}

// IsZero reports whether x == 0.
func (x Num) IsZero() bool { return x.r == nil && x.n == 0 }

// Neg returns −x.
func (x Num) Neg() Num {
	if x.r != nil {
		// A wide value has |numerator| ≥ 2^63 or denominator ≥ 2^63, and
		// so do its negation and its inverse: neither can shrink.
		return Num{r: new(big.Rat).Neg(x.r)}
	}
	return Num{n: -x.n, d: x.d}
}

// Inv returns 1/x. It panics if x == 0.
func (x Num) Inv() Num {
	if x.r != nil {
		return Num{r: new(big.Rat).Inv(x.r)}
	}
	switch {
	case x.n > 0:
		return Num{n: x.den(), d: x.n}
	case x.n < 0:
		return Num{n: -x.den(), d: -x.n}
	}
	panic("exact: division by zero")
}

// Add returns x + y.
func (x Num) Add(y Num) Num {
	if x.r == nil && y.r == nil {
		if z, ok := addSmall(x.n, x.den(), y.n, y.den()); ok {
			return z
		}
	}
	return shrink(new(big.Rat).Add(x.wide(), y.wide()))
}

// Mul returns x·y.
func (x Num) Mul(y Num) Num {
	if x.r == nil && y.r == nil {
		if z, ok := mulSmall(x.n, x.den(), y.n, y.den()); ok {
			return z
		}
	}
	return shrink(new(big.Rat).Mul(x.wide(), y.wide()))
}

// Quo returns x/y. It panics if y == 0.
func (x Num) Quo(y Num) Num {
	if x.r == nil && y.r == nil {
		return x.Mul(y.Inv())
	}
	return shrink(new(big.Rat).Quo(x.wide(), y.wide()))
}

// SubMul returns x − f·p, the row operation of a pivot and of Gaussian
// elimination, without materializing the product as a Num.
func (x Num) SubMul(f, p Num) Num {
	if x.r == nil && f.r == nil && p.r == nil {
		if t, ok := mulSmall(f.n, f.den(), p.n, p.den()); ok {
			if z, ok := addSmall(x.n, x.den(), -t.n, t.den()); ok {
				return z
			}
		}
	}
	t := new(big.Rat).Mul(f.wide(), p.wide())
	return shrink(t.Sub(x.wide(), t))
}

// Cmp returns −1, 0 or +1 as x is less than, equal to or greater than y.
func (x Num) Cmp(y Num) int {
	if x.r != nil || y.r != nil {
		return x.wide().Cmp(y.wide())
	}
	sx, sy := x.Sign(), y.Sign()
	if sx != sy || sx == 0 {
		return cmp.Compare(sx, sy)
	}
	// Same non-zero sign: compare |x.n|·y.d with |y.n|·x.d in 128 bits,
	// which cannot overflow, and flip the answer for negatives.
	lh, ll := bits.Mul64(abs(x.n), uint64(y.den()))
	rh, rl := bits.Mul64(abs(y.n), uint64(x.den()))
	switch {
	case lh < rh || lh == rh && ll < rl:
		return -sx
	case lh > rh || ll > rl:
		return sx
	}
	return 0
}

func abs(v int64) uint64 {
	if v < 0 {
		return uint64(-v)
	}
	return uint64(v)
}

// gcd returns the greatest common divisor of a and b, not both zero.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mul64 returns a·b and whether it fits the small form's range.
func mul64(a, b int64) (int64, bool) {
	if int64(int32(a)) == a && int64(int32(b)) == b {
		return a * b, true
	}
	hi, lo := bits.Mul64(abs(a), abs(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if (a < 0) != (b < 0) {
		return -int64(lo), true
	}
	return int64(lo), true
}

// add64 returns a+b and whether it fits the small form's range.
func add64(a, b int64) (int64, bool) {
	c := a + b
	if (a^c)&(b^c) < 0 || c == math.MinInt64 {
		return 0, false
	}
	return c, true
}

// mulSmall returns (xn/xd)·(yn/yd) in lowest terms, or false when a factor
// of the reduced result leaves 63 bits.
func mulSmall(xn, xd, yn, yd int64) (Num, bool) {
	if xn == 0 || yn == 0 {
		return Num{}, true
	}
	// Cross-cancel first: the inputs are in lowest terms, so what is left
	// is too, and the products are as small as they can be.
	if yd != 1 {
		if g := int64(gcd(abs(xn), uint64(yd))); g != 1 {
			xn, yd = xn/g, yd/g
		}
	}
	if xd != 1 {
		if g := int64(gcd(abs(yn), uint64(xd))); g != 1 {
			yn, xd = yn/g, xd/g
		}
	}
	n, ok := mul64(xn, yn)
	if !ok {
		return Num{}, false
	}
	d, ok := mul64(xd, yd)
	if !ok {
		return Num{}, false
	}
	return Num{n: n, d: d}, true
}

// addSmall returns xn/xd + yn/yd in lowest terms, or false when an
// intermediate or the result leaves 63 bits (the caller then computes in
// big.Rat, which shrinks a result that fits after all).
func addSmall(xn, xd, yn, yd int64) (Num, bool) {
	if xd == yd {
		n, ok := add64(xn, yn)
		if !ok {
			return Num{}, false
		}
		if xd == 1 || n == 0 {
			return Num{n: n, d: 1}, true
		}
		g := int64(gcd(abs(n), uint64(xd)))
		return Num{n: n / g, d: xd / g}, true
	}
	// Knuth 4.5.1: with g = gcd(xd, yd), the sum is
	// t/(xd/g·yd) for t = xn·(yd/g) + yn·(xd/g), reduced by gcd(t, g) only.
	g := int64(gcd(uint64(xd), uint64(yd)))
	xs, ys := xd/g, yd/g
	a, ok := mul64(xn, ys)
	if !ok {
		return Num{}, false
	}
	b, ok := mul64(yn, xs)
	if !ok {
		return Num{}, false
	}
	t, ok := add64(a, b)
	if !ok {
		return Num{}, false
	}
	if t == 0 {
		return Num{n: 0, d: 1}, true
	}
	g2 := int64(gcd(abs(t), uint64(g)))
	d, ok := mul64(xs, yd/g2)
	if !ok {
		return Num{}, false
	}
	return Num{n: t / g2, d: d}, true
}
