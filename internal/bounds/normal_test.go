package bounds

import (
	"math/big"

	"repro/internal/lattice"
)

// MobiusSum recovers h from g: h(X) = Σ_{Y ≥ X} g(Y).
func MobiusSum(l *lattice.Lattice, g []*big.Rat) []*big.Rat {
	n := l.Size()
	h := make([]*big.Rat, n)
	for x := 0; x < n; x++ {
		h[x] = new(big.Rat)
		for y := 0; y < n; y++ {
			if l.Leq(x, y) {
				h[x].Add(h[x], g[y])
			}
		}
	}
	return h
}

// IsNormalFunction reports whether h is a normal submodular function
// (Lemma 4.2): its Möbius inverse g satisfies g(Z) ≤ 0 for all Z ≺ 1̂.
func IsNormalFunction(l *lattice.Lattice, h []*big.Rat) bool {
	g := CMI(l, h)
	for z := 0; z < l.Size(); z++ {
		if z != l.Top && g[z].Sign() > 0 {
			return false
		}
	}
	return true
}

// StepFunction returns h_Z: h_Z(X) = 1 if X ⋠ Z, else 0. Step functions are
// the extreme rays of the normal polymatroid cone (Sec. 4).
func StepFunction(l *lattice.Lattice, z int) []*big.Rat {
	h := make([]*big.Rat, l.Size())
	one := big.NewRat(1, 1)
	for x := range h {
		h[x] = new(big.Rat)
		if !l.Leq(x, z) {
			h[x].Set(one)
		}
	}
	return h
}

// NormalDecomposition decomposes a normal polymatroid into non-negative
// coefficients over step functions: h = Σ_{Z ≠ 1̂} a_Z·h_Z with
// a_Z = −g(Z) ≥ 0. It returns nil if h is not normal.
func NormalDecomposition(l *lattice.Lattice, h []*big.Rat) []*big.Rat {
	g := CMI(l, h)
	a := make([]*big.Rat, l.Size())
	for z := range a {
		a[z] = new(big.Rat)
		if z == l.Top {
			continue
		}
		a[z].Neg(g[z])
		if a[z].Sign() < 0 {
			return nil
		}
	}
	return a
}
