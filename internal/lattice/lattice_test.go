package lattice

import (
	"testing"

	"repro/internal/fd"
	"repro/internal/varset"
)

// fig1Lattice builds the paper's running-example lattice (Fig. 1):
// Q :- R(x,y), S(y,z), T(z,u) with xz → u and yu → x.
// Variables: x=0, y=1, z=2, u=3.
func fig1Lattice() *Lattice {
	s := fd.NewSet(4)
	s.AddGuarded(varset.Of(0, 2), varset.Of(3), -1)
	s.AddGuarded(varset.Of(1, 3), varset.Of(0), -1)
	return New(4, s.Closure)
}

// m3Lattice is the lattice M3 (Fig. 3 right): R(x), S(y), T(z) with
// xy→z, xz→y, yz→x.
func m3Lattice() *Lattice {
	s := fd.NewSet(3)
	s.AddGuarded(varset.Of(0, 1), varset.Of(2), -1)
	s.AddGuarded(varset.Of(0, 2), varset.Of(1), -1)
	s.AddGuarded(varset.Of(1, 2), varset.Of(0), -1)
	return New(3, s.Closure)
}

// n5Lattice is the pentagon N5 realized as a closure system.
func n5Lattice() *Lattice {
	return FromFamily(3, []varset.Set{
		varset.Empty, varset.Of(0), varset.Of(0, 1), varset.Of(2), varset.Of(0, 1, 2),
	})
}

func TestBooleanAlgebra(t *testing.T) {
	l := Boolean(3)
	if l.Size() != 8 {
		t.Fatalf("|2^3| = %d, want 8", l.Size())
	}
	if !l.IsDistributive() || !l.IsModular() || !l.IsBoolean() {
		t.Fatal("Boolean algebra must be distributive, modular, Boolean")
	}
	if len(l.Atoms()) != 3 || len(l.Coatoms()) != 3 {
		t.Fatal("2^3 has 3 atoms and 3 coatoms")
	}
	if len(l.JoinIrreducibles()) != 3 || len(l.MeetIrreducibles()) != 3 {
		t.Fatal("2^3 irreducibles are the atoms/coatoms")
	}
}

func TestBooleanMobius(t *testing.T) {
	l := Boolean(3)
	// µ(X, Y) = (-1)^{|Y \ X|} in a Boolean algebra.
	for i, x := range l.Elems {
		for j, y := range l.Elems {
			if !l.Leq(i, j) {
				if l.Mobius(i, j) != 0 {
					t.Fatalf("µ nonzero off order: %v %v", x, y)
				}
				continue
			}
			want := int64(1)
			if y.Diff(x).Len()%2 == 1 {
				want = -1
			}
			if got := l.Mobius(i, j); got != want {
				t.Fatalf("µ(%v,%v) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestMobiusSumZero(t *testing.T) {
	// Σ_{Z: X ≤ Z ≤ Y} µ(Z, Y) = 0 for X < Y (defining property).
	for _, l := range []*Lattice{Boolean(3), fig1Lattice(), m3Lattice(), n5Lattice()} {
		for i := 0; i < l.Size(); i++ {
			for j := 0; j < l.Size(); j++ {
				if !l.Lt(i, j) {
					continue
				}
				var sum int64
				for z := 0; z < l.Size(); z++ {
					if l.Leq(i, z) && l.Leq(z, j) {
						sum += l.Mobius(z, j)
					}
				}
				if sum != 0 {
					t.Fatalf("Möbius sum at (%d,%d) = %d", i, j, sum)
				}
			}
		}
	}
}

func TestFig1Lattice(t *testing.T) {
	l := fig1Lattice()
	if l.Size() != 12 {
		t.Fatalf("Fig.1 lattice has 12 elements, got %d", l.Size())
	}
	// xz is not closed (xz → u), yz is closed.
	if l.Index(varset.Of(0, 2)) != -1 {
		t.Fatal("{x,z} must not be closed")
	}
	if l.Index(varset.Of(1, 2)) == -1 {
		t.Fatal("{y,z} must be closed")
	}
	// closure(xz) = xzu.
	if l.Elems[l.IndexOfClosure(varset.Of(0, 2))] != varset.Of(0, 2, 3) {
		t.Fatal("closure(xz) should be xzu")
	}
	// Paper: Fig.1 lattice is normal but NOT distributive.
	if l.IsDistributive() {
		t.Fatal("Fig.1 lattice is not distributive")
	}
	// Co-atoms are xyu, yz, xzu.
	co := l.Coatoms()
	if len(co) != 3 {
		t.Fatalf("Fig.1 has 3 co-atoms, got %d", len(co))
	}
	want := map[varset.Set]bool{varset.Of(0, 1, 3): true, varset.Of(1, 2): true, varset.Of(0, 2, 3): true}
	for _, c := range co {
		if !want[l.Elems[c]] {
			t.Fatalf("unexpected coatom %v", l.Elems[c])
		}
	}
	// Join-irreducibles correspond 1-1 to the 4 variables (Sec. 3.1).
	if got := len(l.JoinIrreducibles()); got != 4 {
		t.Fatalf("Fig.1 has 4 join-irreducibles, got %d", got)
	}
}

func TestM3Properties(t *testing.T) {
	l := m3Lattice()
	if l.Size() != 5 {
		t.Fatalf("M3 has 5 elements, got %d", l.Size())
	}
	if l.IsDistributive() {
		t.Fatal("M3 is not distributive")
	}
	if !l.IsModular() {
		t.Fatal("M3 is modular")
	}
	if !l.HasM3Top() {
		t.Fatal("M3 contains M3 with top (itself)")
	}
}

func TestN5Properties(t *testing.T) {
	l := n5Lattice()
	if l.Size() != 5 {
		t.Fatalf("N5 has 5 elements, got %d", l.Size())
	}
	if l.IsDistributive() || l.IsModular() {
		t.Fatal("N5 is neither distributive nor modular")
	}
	if l.HasM3Top() {
		t.Fatal("N5 does not contain M3")
	}
}

func TestSimpleFDsDistributive(t *testing.T) {
	// Prop. 3.2: simple FDs produce a distributive lattice.
	s := fd.NewSet(4)
	s.AddGuarded(varset.Of(0), varset.Of(1), -1)
	s.AddGuarded(varset.Of(2), varset.Of(3), -1)
	s.AddGuarded(varset.Of(1), varset.Of(2), -1)
	l := New(4, s.Closure)
	if !l.IsDistributive() {
		t.Fatal("simple FDs must give a distributive lattice")
	}
}

func TestFig5Lattice(t *testing.T) {
	// Fig. 5: R(x), S(y), xy → z has the 7-element closed-set lattice
	// {∅, x, y, z, xz, yz, xyz}. (Sec. 3.1's remark that the query
	// "is isomorphic to 2^{x,y}" refers to the join-sublattice generated by
	// the inputs {∅, x, y, 1̂}; the full closed-set lattice is Fig. 5 and is
	// not distributive: x ∨ (z ∧ y) = x but (x∨z) ∧ (x∨y) = xz.)
	s := fd.NewSet(3)
	s.AddGuarded(varset.Of(0, 1), varset.Of(2), -1)
	l := New(3, s.Closure)
	if l.Size() != 7 {
		t.Fatalf("xy→z lattice has 7 closed sets, got %d", l.Size())
	}
	for _, want := range []varset.Set{
		varset.Empty, varset.Of(0), varset.Of(1), varset.Of(2),
		varset.Of(0, 2), varset.Of(1, 2), varset.Of(0, 1, 2),
	} {
		if l.Index(want) < 0 {
			t.Fatalf("missing closed set %v", want)
		}
	}
	if l.IsDistributive() {
		t.Fatal("Fig. 5 lattice is not distributive")
	}
}

func TestFromFamilyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-intersection-closed family")
		}
	}()
	FromFamily(3, []varset.Set{varset.Of(0, 1), varset.Of(1, 2), varset.Of(0, 1, 2)})
}

func TestFromFamilyMissingTop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for missing top")
		}
	}()
	FromFamily(2, []varset.Set{varset.Empty, varset.Of(0)})
}

func TestMeetJoinLaws(t *testing.T) {
	for _, l := range []*Lattice{Boolean(3), fig1Lattice(), m3Lattice(), n5Lattice()} {
		n := l.Size()
		for i := 0; i < n; i++ {
			if l.Meet(i, i) != i || l.Join(i, i) != i {
				t.Fatal("idempotence fails")
			}
			if l.Meet(i, l.Bottom) != l.Bottom || l.Join(i, l.Top) != l.Top {
				t.Fatal("bounds laws fail")
			}
			for j := 0; j < n; j++ {
				if l.Meet(i, j) != l.Meet(j, i) || l.Join(i, j) != l.Join(j, i) {
					t.Fatal("commutativity fails")
				}
				// Absorption.
				if l.Meet(i, l.Join(i, j)) != i || l.Join(i, l.Meet(i, j)) != i {
					t.Fatal("absorption fails")
				}
				// Consistency with order.
				if l.Leq(i, j) != (l.Meet(i, j) == i) {
					t.Fatal("order/meet consistency fails")
				}
			}
		}
	}
}

func TestCoversStructure(t *testing.T) {
	l := Boolean(3)
	for i := range l.Elems {
		// In 2^3, element of size s has s lower covers and 3-s upper covers.
		s := l.Elems[i].Len()
		if len(l.LowerCovers(i)) != s || len(l.UpperCovers(i)) != 3-s {
			t.Fatalf("covers wrong at %v", l.Elems[i])
		}
	}
}

func TestJoinIrreducibleVariableCorrespondence(t *testing.T) {
	// For a query with no redundant variables, x ↦ x⁺ is a bijection from
	// variables to join-irreducibles (Sec. 3.1). Check on Fig. 1.
	l := fig1Lattice()
	ji := map[int]bool{}
	for _, e := range l.JoinIrreducibles() {
		ji[e] = true
	}
	for v := 0; v < 4; v++ {
		e := l.IndexOfClosure(varset.Single(v))
		if !ji[e] {
			t.Fatalf("x%d⁺ should be join-irreducible", v)
		}
		delete(ji, e)
	}
	if len(ji) != 0 {
		t.Fatal("join-irreducibles not exhausted by variables")
	}
}

func TestEmbeddingFig1ToBoolean(t *testing.T) {
	// Example 3.8: renaming L(x)=L(u)=a, L(y)=b, L(z)=c embeds the Fig.1
	// lattice into 2^{a,b,c}.
	l := fig1Lattice()
	b3 := Boolean(3)
	rename := []varset.Set{varset.Of(0), varset.Of(1), varset.Of(2), varset.Of(0)} // x,y,z,u → a,b,c,a
	m := make([]int, l.Size())
	for i, e := range l.Elems {
		img := varset.Empty
		for _, v := range e.Members() {
			img = img.Union(rename[v])
		}
		m[i] = b3.Index(img)
		if m[i] < 0 {
			t.Fatalf("image of %v not in Boolean algebra", e)
		}
	}
	emb := &Embedding{From: l, To: b3, Map: m}
	if !emb.Valid() {
		t.Fatal("Example 3.8 renaming must be a valid embedding")
	}
	// Right adjoint r satisfies f(X) ≤ Y iff X ≤ r(Y).
	r := emb.RightAdjoint()
	for x := 0; x < l.Size(); x++ {
		for y := 0; y < b3.Size(); y++ {
			if b3.Leq(m[x], y) != l.Leq(x, r[y]) {
				t.Fatal("adjoint law fails")
			}
		}
	}
	if r[b3.Top] != l.Top {
		t.Fatal("r(1̂) must be 1̂ (Lemma 4.3)")
	}
}

func TestInvalidEmbedding(t *testing.T) {
	l := Boolean(2)
	m := make([]int, l.Size())
	for i := range m {
		m[i] = l.Bottom // constant map: fails f(1̂)=1̂
	}
	emb := &Embedding{From: l, To: l, Map: m}
	if emb.Valid() {
		t.Fatal("constant map must not be a valid embedding")
	}
}

// Embedding is a map f: L → L' preserving joins and mapping top to top
// (Definition 3.5).
type Embedding struct {
	From, To *Lattice
	Map      []int // element index in From → element index in To
}

// Valid checks the embedding conditions: f(1̂) = 1̂ and f(⋁X) = ⋁f(X). The
// paper requires the join condition for every subset X of L; on a finite
// lattice it follows from the condition on pairs plus the empty join,
// f(0̂) = 0̂', and those are what is checked.
func (e *Embedding) Valid() bool {
	if len(e.Map) != e.From.Size() {
		return false
	}
	if e.Map[e.From.Top] != e.To.Top {
		return false
	}
	// Empty join: f(0̂) must equal the empty join in L', i.e. 0̂'.
	if e.Map[e.From.Bottom] != e.To.Bottom {
		return false
	}
	n := e.From.Size()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if e.Map[e.From.Join(i, j)] != e.To.Join(e.Map[i], e.Map[j]) {
				return false
			}
		}
	}
	return true
}

// RightAdjoint returns the right adjoint r: L' → L of the embedding
// (f(X) ≤ Y iff X ≤ r(Y)); it exists because f preserves joins.
func (e *Embedding) RightAdjoint() []int {
	r := make([]int, e.To.Size())
	for y := range r {
		// r(y) = join of all x with f(x) ≤ y.
		rx := e.From.Bottom
		for x := 0; x < e.From.Size(); x++ {
			if e.To.Leq(e.Map[x], y) {
				rx = e.From.Join(rx, x)
			}
		}
		r[y] = rx
	}
	return r
}
