package paper

import (
	"testing"

	"repro/internal/lattice"
	"repro/internal/varset"
)

func TestFig9FamilyIsValidClosureSystem(t *testing.T) {
	l := lattice.FromFamily(9, Fig9Family()) // panics if not intersection-closed
	if l.Size() != 18 {
		t.Fatalf("Fig9 lattice has 18 elements, got %d", l.Size())
	}
	// The relations the proof of Example 5.31 uses.
	idx := func(s varset.Set) int { return l.Index(s) }
	G, I, J := idx(varset.Of(0, 1)), idx(varset.Of(0, 2)), idx(varset.Of(1, 2))
	D := idx(varset.Of(0))
	M, N, O := idx(varset.Of(0, 1, 6)), idx(varset.Of(0, 2, 7)), idx(varset.Of(1, 2, 8))
	Z := idx(varset.Of(0, 1, 2))
	P := idx(varset.Of(0, 1, 2, 3))
	U := idx(varset.Of(0, 1, 2, 3, 4, 6))
	V := idx(varset.Of(0, 1, 2, 3, 5, 7))
	W := idx(varset.Of(0, 1, 2, 4, 5, 8))
	checks := []struct {
		name             string
		a, b, meet, join int
	}{
		{"(19) M,Z", M, Z, G, U},
		{"(20) N,Z", N, Z, I, V},
		{"(21) O,Z", O, Z, J, W},
		{"(22) U,V", U, V, P, l.Top},
		{"(23) W,P", W, P, Z, l.Top},
		{"(24) G,I", G, I, D, Z},
		{"(25) J,D", J, D, l.Bottom, Z},
	}
	for _, c := range checks {
		if l.Meet(c.a, c.b) != c.meet || l.Join(c.a, c.b) != c.join {
			t.Fatalf("%s: meet/join = %d/%d, want %d/%d",
				c.name, l.Meet(c.a, c.b), l.Join(c.a, c.b), c.meet, c.join)
		}
	}
	// M, N, O must be join-irreducible (they are the paper's inputs drawn
	// as single nodes with one lower cover each).
	ji := map[int]bool{}
	for _, e := range l.JoinIrreducibles() {
		ji[e] = true
	}
	for _, x := range []int{M, N, O} {
		if !ji[x] {
			t.Fatalf("element %d should be join-irreducible", x)
		}
	}
}

func TestFig7FamilyRelations(t *testing.T) {
	l := lattice.FromFamily(6, Fig7Family())
	if l.Size() != 10 {
		t.Fatalf("Fig7 lattice has 10 elements, got %d", l.Size())
	}
}

func TestFig4LatticeShape(t *testing.T) {
	q, _ := Fig4()
	l := q.Lattice()
	if l.Size() != 12 {
		t.Fatalf("Fig4 lattice has 12 elements, got %d", l.Size())
	}
	if len(l.Coatoms()) != 4 || len(l.Atoms()) != 6 {
		t.Fatalf("Fig4: coatoms %d atoms %d, want 4 and 6", len(l.Coatoms()), len(l.Atoms()))
	}
}

func TestComponentEncodingRoundTrip(t *testing.T) {
	base := []Value{7, 11, 13, 0, 0, 0, 0, 0}
	comps := varset.Of(0, 2)
	enc := encodeComps(comps, base)
	out := make([]Value, 8)
	decodeComps(comps, enc, out)
	if out[0] != 7 || out[2] != 13 {
		t.Fatalf("round trip failed: %v", out)
	}
}

func TestFig1SkewShape(t *testing.T) {
	q := Fig1Skew(64)
	// |R| = 2·(N/2) − 1 duplicates removed: (1,1) appears twice.
	if q.Rels[0].Len() != 63 {
		t.Fatalf("skew |R| = %d, want 63", q.Rels[0].Len())
	}
}

func TestDegreeTriangleRespectsBounds(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		q := DegreeTriangle(128, d)
		if err := q.Validate(); err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		r := q.Rels[0]
		ix := r.IndexOn(0)
		if got := ix.MaxDegree(1, r.Arity()); got > d {
			t.Fatalf("out-degree %d exceeds bound %d", got, d)
		}
	}
}

func TestIsqrtIcbrt(t *testing.T) {
	if isqrt(0) != 0 || isqrt(15) != 3 || isqrt(16) != 4 {
		t.Fatal("isqrt wrong")
	}
	if icbrt(26) != 2 || icbrt(27) != 3 {
		t.Fatal("icbrt wrong")
	}
}

func TestM3UDFsConsistent(t *testing.T) {
	q := M3Instance(7)
	// The xy→z UDF must agree with the instance constraint.
	f := q.FDs.FDs[0].Fns[2]
	for i := Value(0); i < 7; i++ {
		for j := Value(0); j < 7; j++ {
			z := f([]Value{i, j})
			if (i+j+z)%7 != 0 || z < 0 || z >= 7 {
				t.Fatalf("UDF inconsistent at (%d,%d) -> %d", i, j, z)
			}
		}
	}
}

func TestTriangleRandomDeterministic(t *testing.T) {
	a := TriangleRandom(5, 20, 42)
	b := TriangleRandom(5, 20, 42)
	for j := range a.Rels {
		if a.Rels[j].Len() != b.Rels[j].Len() {
			t.Fatal("same seed must give same instance")
		}
	}
}
