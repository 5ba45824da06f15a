package lattice

import (
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/varset"
)

func TestMaximalChainsBoolean(t *testing.T) {
	l := Boolean(3)
	chains := slices.Collect(l.EachMaximalChain)
	if len(chains) != 6 { // 3! linear orders
		t.Fatalf("2^3 has 6 maximal chains, got %d", len(chains))
	}
	for _, c := range chains {
		if !l.IsChain(c) || !l.IsMaximalChain(c) {
			t.Fatal("enumerated chain not maximal/valid")
		}
		if len(c) != 4 {
			t.Fatalf("maximal chain in 2^3 has length 4, got %d", len(c))
		}
	}
}

func TestMaximalChainGoodForAll(t *testing.T) {
	// Prop. 5.2: maximal chains are good for every element.
	for _, l := range []*Lattice{Boolean(3), fig1Lattice(), m3Lattice(), n5Lattice()} {
		for _, c := range slices.Collect(l.EachMaximalChain) {
			for x := 0; x < l.Size(); x++ {
				if !l.GoodFor(c, x) {
					t.Fatalf("maximal chain %v not good for element %v", c, l.Elems[x])
				}
			}
		}
	}
}

func TestChainEdgeFig1(t *testing.T) {
	// Example 5.5: chain 0̂ ≺ y ≺ yz ≺ 1̂ has edges e_R = {y, 1̂-step},
	// e_S = {y, yz}, e_T = {yz, 1̂-step}. Steps are 0-based 0,1,2.
	l := fig1Lattice()
	c := Chain{l.Bottom, l.Index(varset.Of(1)), l.Index(varset.Of(1, 2)), l.Top}
	if !l.IsChain(c) {
		t.Fatal("not a chain")
	}
	R := l.Index(varset.Of(0, 1))
	S := l.Index(varset.Of(1, 2))
	T := l.Index(varset.Of(2, 3))
	if !l.GoodForAll(c, []int{R, S, T}) {
		t.Fatal("chain should be good for the inputs")
	}
	eq := func(a []int, b ...int) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if e := l.ChainEdge(c, R); !eq(e, 0, 2) {
		t.Fatalf("e_R = %v, want [0 2]", e)
	}
	if e := l.ChainEdge(c, S); !eq(e, 0, 1) {
		t.Fatalf("e_S = %v, want [0 1]", e)
	}
	if e := l.ChainEdge(c, T); !eq(e, 1, 2) {
		t.Fatalf("e_T = %v, want [1 2]", e)
	}
}

func TestGoodChainJoinIrrFig5(t *testing.T) {
	// Example 5.10: Q :- R(x), S(y), z = f(x,y). Maximal chains leave an
	// isolated vertex; Cor. 5.9 gives 0̂ ≺ x ≺ 1̂ (or 0̂ ≺ y ≺ 1̂) with
	// no isolated vertex. x=0, y=1, z=2.
	s := fd.NewSet(3)
	s.AddUDF(varset.Of(0, 1), 2, func(a []fd.Value) fd.Value { return a[0] + a[1] })
	l := New(3, s.Closure)
	R := l.Index(varset.Of(0))
	S := l.Index(varset.Of(1))
	inputs := []int{R, S}

	c := l.GoodChainJoinIrreducibles(inputs)
	if !l.IsChain(c) || !l.GoodForAll(c, inputs) {
		t.Fatalf("constructed chain %v not good", c)
	}
	// Every step must be covered by some input (no isolated vertex).
	for i := 1; i < len(c); i++ {
		covered := false
		for _, r := range inputs {
			if l.CoversStep(c, r, i) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("step %d of chain %v is isolated", i, c)
		}
	}
	// The chain is NOT maximal (it skips z and xz levels): length 3.
	if len(c) != 3 {
		t.Fatalf("expected non-maximal chain of length 3, got %v", c)
	}

	// For contrast: the maximal chain 0̂ ≺ z ≺ xz ≺ 1̂ has an isolated
	// vertex (neither R nor S covers step z).
	mc := Chain{l.Bottom, l.Index(varset.Of(2)), l.Index(varset.Of(0, 2)), l.Top}
	if !l.IsMaximalChain(mc) {
		t.Fatal("0̂≺z≺xz≺1̂ should be maximal")
	}
	if len(l.ChainEdge(mc, R))+len(l.ChainEdge(mc, S)) >= 3 {
		isolated := false
		for i := 0; i < len(mc)-1; i++ {
			cov := false
			for _, r := range inputs {
				for _, e := range l.ChainEdge(mc, r) {
					if e == i {
						cov = true
					}
				}
			}
			if !cov {
				isolated = true
			}
		}
		if !isolated {
			t.Fatal("maximal chain should have an isolated vertex")
		}
	}
}

func TestGoodChainJoinIrrCoversAllSteps(t *testing.T) {
	// Cor. 5.9 guarantee on several lattices with all coatoms as inputs.
	for _, l := range []*Lattice{Boolean(3), fig1Lattice(), m3Lattice()} {
		inputs := l.Coatoms()
		c := l.GoodChainJoinIrreducibles(inputs)
		if !l.IsChain(c) {
			t.Fatalf("not a chain: %v", c)
		}
		if !l.GoodForAll(c, inputs) {
			t.Fatalf("chain %v not good for inputs", c)
		}
		for i := 1; i < len(c); i++ {
			covered := false
			for _, r := range inputs {
				if l.CoversStep(c, r, i) {
					covered = true
				}
			}
			if !covered {
				t.Fatalf("isolated step in %v", c)
			}
		}
	}
}

func TestGoodChainMeetIrr(t *testing.T) {
	for _, l := range []*Lattice{Boolean(3), fig1Lattice()} {
		c := l.GoodChainMeetIrreducibles(l.Coatoms())
		if !l.IsChain(c) {
			t.Fatalf("meet-irreducible chain invalid: %v", c)
		}
	}
}

func TestChainTightConditionDistributive(t *testing.T) {
	// Cor. 5.15: on a distributive lattice every maximal chain satisfies the
	// tightness condition of Thm 5.14.
	l := Boolean(3)
	for _, c := range slices.Collect(l.EachMaximalChain) {
		if !l.ChainTightCondition(c) {
			t.Fatalf("condition (15) must hold on Boolean algebra chain %v", c)
		}
	}
	// Simple-FD lattice likewise.
	s := fd.NewSet(3)
	s.AddGuarded(varset.Of(0), varset.Of(1), -1)
	dl := New(3, s.Closure)
	for _, c := range slices.Collect(dl.EachMaximalChain) {
		if !dl.ChainTightCondition(c) {
			t.Fatal("condition (15) must hold on simple-FD lattice")
		}
	}
}

func TestChainTightConditionFig6(t *testing.T) {
	// Example 5.16: the Fig.1/Fig.6 lattice with the chain 0̂ ≺ y ≺ yz ≺ 1̂
	// satisfies condition (15) even though the lattice is not distributive.
	l := fig1Lattice()
	c := Chain{l.Bottom, l.Index(varset.Of(1)), l.Index(varset.Of(1, 2)), l.Top}
	if !l.ChainTightCondition(c) {
		t.Fatal("Fig.6 chain should satisfy condition (15)")
	}
}

func TestIsChainRejects(t *testing.T) {
	l := Boolean(2)
	if l.IsChain(Chain{l.Top, l.Bottom}) {
		t.Fatal("descending sequence is not a chain")
	}
	if l.IsChain(Chain{l.Bottom}) {
		t.Fatal("chain must end at top")
	}
	if l.IsChain(Chain{l.Bottom, l.Index(varset.Of(0)), l.Index(varset.Of(1)), l.Top}) {
		t.Fatal("incomparable steps are not a chain")
	}
}

// IsMaximalChain reports whether every step of the chain is a covering
// relation. Maximal chains are good for every element (Prop. 5.2).
func (l *Lattice) IsMaximalChain(c Chain) bool {
	if !l.IsChain(c) {
		return false
	}
	for i := 1; i < len(c); i++ {
		if !slices.Contains(l.upperCovers[c[i-1]], c[i]) {
			return false
		}
	}
	return true
}

// ChainTightCondition checks the sufficient condition of Theorem 5.14 on a
// chain that is good for every lattice element: e(X ∨ Y) ⊆ e(X) ∪ e(Y) for
// all X, Y. When it holds the chain bound is tight on the lattice.
func (l *Lattice) ChainTightCondition(c Chain) bool {
	// The chain must be good for every element.
	for x := range l.Elems {
		if !l.GoodFor(c, x) {
			return false
		}
	}
	e := l.StepSets(c)
	n := l.Size()
	toMask := func(steps []int) uint64 {
		var m uint64
		for _, s := range steps {
			m |= 1 << uint(s)
		}
		return m
	}
	masks := make([]uint64, n)
	for i := range masks {
		masks[i] = toMask(e[i])
	}
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if masks[l.Join(x, y)]&^(masks[x]|masks[y]) != 0 {
				return false
			}
		}
	}
	return true
}

// StepSets returns e(S) = {i : S ∧ C_i ≠ S ∧ C_{i-1}} for every lattice
// element S (Lemma 5.13), used by the tightness condition of Theorem 5.14.
func (l *Lattice) StepSets(c Chain) [][]int {
	out := make([][]int, l.Size())
	for s := range out {
		out[s] = l.ChainEdge(c, s)
	}
	return out
}
