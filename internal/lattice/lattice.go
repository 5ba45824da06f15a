// Package lattice implements the lattice of closed attribute sets that
// represents a query with functional dependencies (Sec. 3 of the paper),
// together with the lattice-theoretic machinery the bounds and algorithms
// need: meet/join tables, covers, join- and meet-irreducibles, atoms and
// co-atoms, the Möbius function, distributivity/modularity tests, M3
// detection (Prop. 4.10), chains and chain goodness (Sec. 5.1), and lattice
// embeddings (Sec. 3.4).
package lattice

import (
	"fmt"
	"sort"
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
	leq         [][]bool
	meet, join  [][]int
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
		idx: make(map[varset.Set]int, n),
	}
	for i, e := range elems {
		l.idx[e] = i
	}
	l.leq = make([][]bool, n)
	for i := range l.leq {
		l.leq[i] = make([]bool, n)
		for j := range l.leq[i] {
			l.leq[i][j] = elems[j].ContainsAll(elems[i])
		}
	}
	l.meet = make([][]int, n)
	l.join = make([][]int, n)
	for i := 0; i < n; i++ {
		l.meet[i] = make([]int, n)
		l.join[i] = make([]int, n)
		for j := 0; j < n; j++ {
			m, ok := l.idx[elems[i].Intersect(elems[j])]
			if !ok {
				panic("lattice: meet escapes element set (closure system broken)")
			}
			l.meet[i][j] = m
			jn, ok := l.idx[closure(elems[i].Union(elems[j]))]
			if !ok {
				panic("lattice: join escapes element set (closure system broken)")
			}
			l.join[i][j] = jn
		}
	}
	l.computeCovers()
	return l
}

func (l *Lattice) computeCovers() {
	n := len(l.Elems)
	l.upperCovers = make([][]int, n)
	l.lowerCovers = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !l.leq[i][j] {
				continue
			}
			// j covers i iff no k strictly between.
			covers := true
			for k := 0; k < n; k++ {
				if k != i && k != j && l.leq[i][k] && l.leq[k][j] {
					covers = false
					break
				}
			}
			if covers {
				l.upperCovers[i] = append(l.upperCovers[i], j)
				l.lowerCovers[j] = append(l.lowerCovers[j], i)
			}
		}
	}
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

// Closure applies the underlying closure operator.
func (l *Lattice) Closure(x varset.Set) varset.Set { return l.closure(x) }

// Leq reports whether element i ≤ element j.
func (l *Lattice) Leq(i, j int) bool { return l.leq[i][j] }

// Lt reports whether i < j strictly.
func (l *Lattice) Lt(i, j int) bool { return i != j && l.leq[i][j] }

// Incomparable reports whether neither i ≤ j nor j ≤ i.
func (l *Lattice) Incomparable(i, j int) bool { return !l.leq[i][j] && !l.leq[j][i] }

// Meet returns i ∧ j.
func (l *Lattice) Meet(i, j int) int { return l.meet[i][j] }

// Join returns i ∨ j.
func (l *Lattice) Join(i, j int) int { return l.join[i][j] }

// UpperCovers returns the elements covering i.
func (l *Lattice) UpperCovers(i int) []int { return l.upperCovers[i] }

// LowerCovers returns the elements covered by i.
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
			if !l.leq[a][b] {
				continue
			}
			var sum int64
			for z := a; z < b; z++ {
				if l.leq[a][z] && l.leq[z][b] && z != b {
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
				if l.meet[a][l.join[b][c]] != l.join[l.meet[a][b]][l.meet[a][c]] {
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
			if !l.leq[a][c] {
				continue
			}
			for b := 0; b < n; b++ {
				if l.join[a][l.meet[b][c]] != l.meet[l.join[a][b]][c] {
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
			if y == top || l.join[x][y] != top {
				continue
			}
			u := l.meet[x][y]
			for z := y + 1; z < n; z++ {
				if z == top {
					continue
				}
				if l.join[x][z] == top && l.join[y][z] == top &&
					l.meet[x][z] == u && l.meet[y][z] == u &&
					u != x && u != y && u != z {
					return true
				}
			}
		}
	}
	return false
}

// Format renders element i with variable names.
func (l *Lattice) Format(i int, names []string) string {
	return l.Elems[i].Format(names)
}

// Dual note: the element list is sorted by cardinality, so index order is a
// linear extension of the lattice order; Mobius relies on this.

// Embedding is a map f: L → L' preserving joins and mapping top to top
// (Definition 3.5).
type Embedding struct {
	From, To *Lattice
	Map      []int // element index in From → element index in To
}

// Valid checks the embedding conditions: f(⋁X) = ⋁f(X) for all pairs (which
// suffices for finite joins together with f(0̂)... the paper requires the
// condition for all subsets; pairwise plus bottom preservation f(0̂) = image
// bottom of the empty join is checked explicitly) and f(1̂) = 1̂.
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

// Boolean returns the Boolean algebra lattice 2^[k].
func Boolean(k int) *Lattice {
	return New(k, func(x varset.Set) varset.Set { return x })
}

// ElemsByLevel groups element indices by cardinality of the closed set,
// useful for rendering Hasse-like summaries.
func (l *Lattice) ElemsByLevel() [][]int {
	byLen := map[int][]int{}
	var lens []int
	for i, e := range l.Elems {
		n := e.Len()
		if _, ok := byLen[n]; !ok {
			lens = append(lens, n)
		}
		byLen[n] = append(byLen[n], i)
	}
	sort.Ints(lens)
	out := make([][]int, 0, len(lens))
	for _, n := range lens {
		out = append(out, byLen[n])
	}
	return out
}
