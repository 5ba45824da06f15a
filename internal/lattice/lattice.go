// Package lattice implements the lattice of closed attribute sets that
// represents a query with functional dependencies (Sec. 3 of the paper),
// together with the lattice-theoretic machinery the bounds and algorithms
// need: order, meet and join computed from the closed sets, covers,
// join- and meet-irreducibles, atoms and co-atoms, the Möbius function,
// distributivity/modularity tests, M3 detection (Prop. 4.10), chains and
// chain goodness (Sec. 5.1), and lattice embeddings (Sec. 3.4).
package lattice

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/varset"
)

// Lattice is a finite lattice of closed variable sets. Element 0 is the
// bottom 0̂ (the closure of ∅) and the last element is the top 1̂ (the
// closure of the universe). Elements are sorted by cardinality then value.
type Lattice struct {
	K       int          // number of variables in the underlying universe
	Elems   []varset.Set // closed sets
	Bottom  int          // always 0
	Top     int          // always len(Elems)-1
	closure func(varset.Set) varset.Set

	idx         map[varset.Set]int
	upperCovers [][]int
	lowerCovers [][]int

	mobiusOnce sync.Once // builds the lazy Möbius memo exactly once
	mobius     [][]int64 // immutable after the build; read lock-free
}

// New builds the lattice of closed sets of the given closure operator over
// k variables, by breadth-first generation from closure(∅).
func New(k int, closure func(varset.Set) varset.Set) *Lattice {
	bottom := closure(varset.Empty)
	seen := map[varset.Set]bool{bottom: true}
	queue := []varset.Set{bottom}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for v := 0; v < k; v++ {
			if x.Contains(v) {
				continue
			}
			nx := closure(x.Add(v))
			if !seen[nx] {
				seen[nx] = true
				queue = append(queue, nx)
			}
		}
	}
	elems := make([]varset.Set, 0, len(seen))
	for x := range seen {
		elems = append(elems, x)
	}
	varset.SortSets(elems)
	return fromSortedElems(k, elems, closure)
}

// FromFamily builds a lattice from an explicit family of closed sets over k
// variables. The family must contain the universe and be closed under
// intersection; New panics otherwise. The bottom is the intersection of all
// members. This constructor realizes the paper's abstract lattices (Fig. 7,
// 8, 9) as concrete closure systems.
func FromFamily(k int, family []varset.Set) *Lattice {
	u := varset.Universe(k)
	hasTop := false
	memb := map[varset.Set]bool{}
	for _, x := range family {
		memb[x] = true
		if x == u {
			hasTop = true
		}
	}
	if !hasTop {
		panic("lattice: family must contain the universe")
	}
	for _, a := range family {
		for _, b := range family {
			if !memb[a.Intersect(b)] {
				panic(fmt.Sprintf("lattice: family not intersection-closed: %v ∩ %v missing", a, b))
			}
		}
	}
	elems := make([]varset.Set, 0, len(memb))
	for x := range memb {
		elems = append(elems, x)
	}
	varset.SortSets(elems)
	closure := func(x varset.Set) varset.Set {
		best := u
		for _, e := range elems {
			if e.ContainsAll(x) && best.ContainsAll(e) {
				best = e
			}
		}
		return best
	}
	return fromSortedElems(k, elems, closure)
}

func fromSortedElems(k int, elems []varset.Set, closure func(varset.Set) varset.Set) *Lattice {
	n := len(elems)
	l := &Lattice{
		K: k, Elems: elems, Bottom: 0, Top: n - 1, closure: closure,
		idx:         make(map[varset.Set]int, n),
		upperCovers: make([][]int, n),
		lowerCovers: make([][]int, n),
	}
	for i, e := range elems {
		l.idx[e] = i
	}
	// Every y above x contains closure(x ∪ {v}) for each v ∈ y \ x, so the
	// upper covers of x are the minimal sets among those k closures. Both
	// cover lists come out in ascending index order: CLLP and CSMA emit LP
	// rows in that order.
	var succ []int
	for i, x := range elems {
		succ = succ[:0]
		for v := 0; v < k; v++ {
			if !x.Contains(v) {
				succ = append(succ, l.IndexOfClosure(x.Add(v)))
			}
		}
		slices.Sort(succ)
		succ = slices.Compact(succ)
		for _, j := range succ {
			if !slices.ContainsFunc(succ, func(m int) bool { return l.Lt(m, j) }) {
				l.upperCovers[i] = append(l.upperCovers[i], j)
				l.lowerCovers[j] = append(l.lowerCovers[j], i)
			}
		}
	}
	return l
}

// Size returns the number of lattice elements.
func (l *Lattice) Size() int { return len(l.Elems) }

// Index returns the element index of a closed set, or -1 if x is not closed.
func (l *Lattice) Index(x varset.Set) int {
	if i, ok := l.idx[x]; ok {
		return i
	}
	return -1
}

// IndexOfClosure returns the element index of closure(x).
func (l *Lattice) IndexOfClosure(x varset.Set) int {
	i, ok := l.idx[l.closure(x)]
	if !ok {
		panic("lattice: closure escapes element set")
	}
	return i
}

// Leq reports whether element i ≤ element j, that is Elems[i] ⊆ Elems[j].
func (l *Lattice) Leq(i, j int) bool { return l.Elems[j].ContainsAll(l.Elems[i]) }

// Lt reports whether i < j strictly.
func (l *Lattice) Lt(i, j int) bool { return i != j && l.Leq(i, j) }

// Incomparable reports whether neither i ≤ j nor j ≤ i.
func (l *Lattice) Incomparable(i, j int) bool { return !l.Leq(i, j) && !l.Leq(j, i) }

// Meet returns i ∧ j, the intersection of the two closed sets.
func (l *Lattice) Meet(i, j int) int {
	m, ok := l.idx[l.Elems[i].Intersect(l.Elems[j])]
	if !ok {
		panic("lattice: meet escapes element set (closure system broken)")
	}
	return m
}

// Join returns i ∨ j, the closure of the union of the two closed sets.
func (l *Lattice) Join(i, j int) int {
	switch {
	case l.Leq(i, j):
		return j
	case l.Leq(j, i):
		return i
	}
	return l.IndexOfClosure(l.Elems[i].Union(l.Elems[j]))
}

// UpperCovers returns the elements covering i, in ascending index order.
func (l *Lattice) UpperCovers(i int) []int { return l.upperCovers[i] }

// LowerCovers returns the elements covered by i, in ascending index order.
func (l *Lattice) LowerCovers(i int) []int { return l.lowerCovers[i] }

// Atoms returns the elements covering Bottom.
func (l *Lattice) Atoms() []int { return l.upperCovers[l.Bottom] }

// Coatoms returns the elements covered by Top.
func (l *Lattice) Coatoms() []int { return l.lowerCovers[l.Top] }

// JoinIrreducibles returns the elements with exactly one lower cover.
func (l *Lattice) JoinIrreducibles() []int {
	var out []int
	for i := range l.Elems {
		if len(l.lowerCovers[i]) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// MeetIrreducibles returns the elements with exactly one upper cover.
func (l *Lattice) MeetIrreducibles() []int {
	var out []int
	for i := range l.Elems {
		if len(l.upperCovers[i]) == 1 {
			out = append(out, i)
		}
	}
	return out
}

// Mobius returns µ(i, j) for i ≤ j (0 when i ≰ j), computing the table on
// first use: µ(X,X) = 1 and µ(X,Y) = −Σ_{X≤Z<Y} µ(X,Z). Safe for
// concurrent use; the sync.Once build keeps the per-lookup path lock-free
// (callers like bounds.CMI probe the table in O(n²) loops).
func (l *Lattice) Mobius(i, j int) int64 {
	l.mobiusOnce.Do(l.buildMobius)
	return l.mobius[i][j]
}

func (l *Lattice) buildMobius() {
	n := len(l.Elems)
	mob := make([][]int64, n)
	for a := range mob {
		mob[a] = make([]int64, n)
	}
	for a := 0; a < n; a++ {
		mob[a][a] = 1
		// Process targets in element order (a sorted linear extension).
		for b := a + 1; b < n; b++ {
			if !l.Leq(a, b) {
				continue
			}
			var sum int64
			for z := a; z < b; z++ {
				if l.Leq(a, z) && l.Leq(z, b) {
					sum += mob[a][z]
				}
			}
			mob[a][b] = -sum
		}
	}
	l.mobius = mob
}

// IsDistributive reports whether the lattice is distributive:
// a ∧ (b ∨ c) = (a ∧ b) ∨ (a ∧ c) for all triples.
func (l *Lattice) IsDistributive() bool {
	n := len(l.Elems)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			for c := 0; c < n; c++ {
				if l.Meet(a, l.Join(b, c)) != l.Join(l.Meet(a, b), l.Meet(a, c)) {
					return false
				}
			}
		}
	}
	return true
}

// IsModular reports whether the lattice is modular:
// a ≤ c implies a ∨ (b ∧ c) = (a ∨ b) ∧ c.
func (l *Lattice) IsModular() bool {
	n := len(l.Elems)
	for a := 0; a < n; a++ {
		for c := 0; c < n; c++ {
			if !l.Leq(a, c) {
				continue
			}
			for b := 0; b < n; b++ {
				if l.Join(a, l.Meet(b, c)) != l.Meet(l.Join(a, b), c) {
					return false
				}
			}
		}
	}
	return true
}

// IsBoolean reports whether the lattice is isomorphic to the Boolean algebra
// on its atoms (distributive and every element a join of atoms with
// complement).
func (l *Lattice) IsBoolean() bool {
	atoms := l.Atoms()
	return l.Size() == 1<<uint(len(atoms)) && l.IsDistributive()
}

// HasM3Top reports whether the lattice contains a sublattice {U, X, Y, Z, 1̂}
// isomorphic to M3 whose maximum is the lattice top — the necessary
// condition for non-normality of Prop. 4.10.
func (l *Lattice) HasM3Top() bool {
	n := len(l.Elems)
	top := l.Top
	for x := 0; x < n; x++ {
		if x == top {
			continue
		}
		for y := x + 1; y < n; y++ {
			if y == top || l.Join(x, y) != top {
				continue
			}
			u := l.Meet(x, y)
			for z := y + 1; z < n; z++ {
				if z == top {
					continue
				}
				if l.Join(x, z) == top && l.Join(y, z) == top &&
					l.Meet(x, z) == u && l.Meet(y, z) == u &&
					u != x && u != y && u != z {
					return true
				}
			}
		}
	}
	return false
}

// Dual note: the element list is sorted by cardinality, so index order is a
// linear extension of the lattice order; Mobius relies on this.

// Boolean returns the Boolean algebra lattice 2^[k].
func Boolean(k int) *Lattice {
	return New(k, func(x varset.Set) varset.Set { return x })
}
