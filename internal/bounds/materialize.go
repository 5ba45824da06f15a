package bounds

import (
	"fmt"
	"math/big"

	"repro/internal/lattice"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Materialization is a database instance for a lattice (Sec. 3.2): a single
// relation over the lattice's join-irreducible variables whose entropy
// function realizes a prescribed polymatroid.
type Materialization struct {
	D        *rel.Relation // one column per join-irreducible of the lattice
	VarElems []int         // lattice element (x⁺) per column of D
}

// MaterializeNormal constructs the canonical quasi-product instance of an
// integral normal polymatroid (Definition 4.4 / Lemma 4.5): allocate
// a_Z = −g(Z) binary coordinates per element Z ≺ 1̂, embed L into the
// (upside-down) Boolean algebra on those coordinates via
// f(X) = ⋃_{Z ≥ X} C(Z), and pull back the product instance {0,1}^C.
// Each variable's value packs the bits of the coordinates NOT in f(x⁺)
// — i.e. the coordinates that distinguish tuples agreeing on x.
//
// The result satisfies log2 |Π_{Λ(X)}(D)| = h(X) for every X ∈ L.
// It returns an error if h is not an integral normal polymatroid. Only
// tests call it until the worst-case catalog family of ROADMAP item 11
// builds its instances here.
func MaterializeNormal(l *lattice.Lattice, h []*big.Rat) (*Materialization, error) {
	g := CMI(l, h)
	// Coordinate allocation: a_Z = −g(Z) bits for each Z ≠ 1̂.
	type coordRange struct{ start, count int }
	coords := make([]coordRange, l.Size())
	total := 0
	for z := 0; z < l.Size(); z++ {
		if z == l.Top {
			continue
		}
		neg := new(big.Rat).Neg(g[z])
		if neg.Sign() < 0 {
			return nil, fmt.Errorf("bounds: h is not normal (g(%v) > 0)", l.Elems[z])
		}
		if !neg.IsInt() {
			return nil, fmt.Errorf("bounds: h is not integral at %v", l.Elems[z])
		}
		c := int(neg.Num().Int64())
		coords[z] = coordRange{start: total, count: c}
		total += c
	}
	if total > 20 {
		return nil, fmt.Errorf("bounds: %d coordinates too many to materialize", total)
	}

	// For each lattice element X, the coordinate set of f(X) in the
	// upside-down algebra is ⋃_{Z ≥ X} C(Z); a variable's value encodes the
	// complementary coordinates (those whose Z ⋡ X), because tuples that
	// agree on those bits project to the same x value. Equivalently, the
	// projection count onto X is 2^{Σ_{Z ⋡ X} a_Z} = 2^{h(X)}.
	ji := l.JoinIrreducibles()
	maskOf := func(x int) uint32 {
		var m uint32
		for z := 0; z < l.Size(); z++ {
			if z == l.Top || l.Leq(x, z) {
				continue
			}
			for b := 0; b < coords[z].count; b++ {
				m |= 1 << uint(coords[z].start+b)
			}
		}
		return m
	}

	attrs := make([]int, len(ji))
	varElems := make([]int, len(ji))
	masks := make([]uint32, len(ji))
	for i, e := range ji {
		attrs[i] = i
		varElems[i] = e
		masks[i] = maskOf(e)
	}
	d := rel.New("D", attrs...)
	for bits := uint32(0); bits < 1<<uint(total); bits++ {
		t := make(rel.Tuple, len(ji))
		for i := range ji {
			t[i] = rel.Value(bits & masks[i])
		}
		d.AddTuple(t)
	}
	d.SortDedup()
	return &Materialization{D: d, VarElems: varElems}, nil
}

// EntropyOf returns log2 of the projection count of the materialization
// onto the join-irreducibles below lattice element x — the realized h(x).
// ROADMAP item 11 checks its instances with it.
func (m *Materialization) EntropyOf(l *lattice.Lattice, x int) float64 {
	var keep varset.Set
	for i, e := range m.VarElems {
		if l.Leq(e, x) {
			keep = keep.Add(i)
		}
	}
	n := m.D.Project(keep).Len()
	lg := 0.0
	for v := 1; v < n; v *= 2 {
		lg++
	}
	return lg
}
