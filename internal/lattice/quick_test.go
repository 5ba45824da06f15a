package lattice

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/varset"
)

// randomFDLattice builds the lattice of a random FD set over k variables.
func randomFDLattice(rng *rand.Rand, k, nFDs int) *Lattice {
	s := fd.NewSet(k)
	for i := 0; i < nFDs; i++ {
		from := varset.Set(rng.Int63()) & varset.Universe(k)
		if from.IsEmpty() {
			from = varset.Single(rng.Intn(k))
		}
		to := varset.Single(rng.Intn(k))
		if from.ContainsAll(to) {
			continue
		}
		s.Add(from, to, -1, nil)
	}
	return New(k, s.Closure)
}

// Property: lattice laws hold on random FD lattices.
func TestRandomLatticeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		l := randomFDLattice(rng, 3+rng.Intn(3), 1+rng.Intn(4))
		n := l.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				m, j := l.Meet(a, b), l.Join(a, b)
				if !l.Leq(m, a) || !l.Leq(m, b) || !l.Leq(a, j) || !l.Leq(b, j) {
					t.Fatal("meet/join bounds violated")
				}
				// Meet is the greatest lower bound.
				for c := 0; c < n; c++ {
					if l.Leq(c, a) && l.Leq(c, b) && !l.Leq(c, m) {
						t.Fatal("meet not greatest lower bound")
					}
					if l.Leq(a, c) && l.Leq(b, c) && !l.Leq(j, c) {
						t.Fatal("join not least upper bound")
					}
				}
			}
		}
	}
}

// Property: every element is the join of the join-irreducibles below it.
func TestRandomLatticeJoinIrreducibleGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		l := randomFDLattice(rng, 3+rng.Intn(3), 1+rng.Intn(4))
		ji := l.JoinIrreducibles()
		for x := 0; x < l.Size(); x++ {
			acc := l.Bottom
			for _, e := range ji {
				if l.Leq(e, x) {
					acc = l.Join(acc, e)
				}
			}
			if acc != x {
				t.Fatalf("element %v is not the join of its join-irreducibles", l.Elems[x])
			}
		}
	}
}

// Property: Möbius inversion round-trips on random lattices.
func TestRandomLatticeMobiusInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		l := randomFDLattice(rng, 3+rng.Intn(3), 1+rng.Intn(4))
		n := l.Size()
		// Random integer h, compute g by Möbius, re-sum, compare.
		h := make([]int64, n)
		for i := range h {
			h[i] = int64(rng.Intn(20) - 10)
		}
		g := make([]int64, n)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if l.Leq(x, y) {
					g[x] += l.Mobius(x, y) * h[y]
				}
			}
		}
		for x := 0; x < n; x++ {
			var sum int64
			for y := 0; y < n; y++ {
				if l.Leq(x, y) {
					sum += g[y]
				}
			}
			if sum != h[x] {
				t.Fatalf("Möbius inversion failed at %d", x)
			}
		}
	}
}

// Property: maximal chains are good for every element (Prop. 5.2), on
// random lattices.
func TestRandomLatticeMaximalChainsGood(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		l := randomFDLattice(rng, 3+rng.Intn(2), 1+rng.Intn(3))
		chains := slices.Collect(l.EachMaximalChain)
		if len(chains) == 0 {
			t.Fatal("every lattice has a maximal chain")
		}
		for _, c := range chains {
			for x := 0; x < l.Size(); x++ {
				if !l.GoodFor(c, x) {
					t.Fatalf("maximal chain not good for %v", l.Elems[x])
				}
			}
		}
	}
}

// Property: distributive implies modular; Boolean implies both.
func TestRandomLatticeHierarchy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		l := randomFDLattice(rng, 3+rng.Intn(3), 1+rng.Intn(4))
		if l.IsDistributive() && !l.IsModular() {
			t.Fatal("distributive lattice must be modular")
		}
		if l.IsBoolean() && !l.IsDistributive() {
			t.Fatal("Boolean lattice must be distributive")
		}
	}
}
