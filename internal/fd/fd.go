// Package fd models functional dependencies over query variables, including
// guarded FDs (enforced by an input relation) and unguarded FDs defined by
// user-defined functions (UDFs), as in Sec. 1.1 and 2 of the paper.
//
// It provides the closure operator X ↦ X⁺, which is the basis of the
// lattice representation (Sec. 3), and redundant-variable detection used to
// establish the 1-1 correspondence between variables and join-irreducibles.
package fd

import (
	"fmt"
	"strings"

	"repro/internal/varset"
)

// Value is a dictionary-encoded attribute value.
type Value = int64

// UDF computes the value of a dependent variable from the values of the
// determining variables, supplied in increasing variable-index order.
type UDF func(args []Value) Value

// FD is a functional dependency From → To.
//
// If Guard ≥ 0, the dependency is guarded by relation index Guard (both From
// and To are among that relation's attributes and the instance satisfies the
// dependency). If Guard < 0 the dependency is unguarded, and a query runs
// only if Fns supplies a UDF per variable of To (keyed by variable index) so
// the algorithms can compute the dependent values (query.CheckComputable).
// A Set used as a bare closure operator — FromClosure, the lattice tests —
// may hold unguarded FDs without functions.
type FD struct {
	From  varset.Set
	To    varset.Set
	Guard int
	Fns   map[int]UDF
	// FnNames optionally records a portable name per computed target (same
	// keys as Fns) when the UDF came from a named builtin (the script
	// parser's `via` clause). Execution never reads it; it exists so a
	// parsed query can be re-serialized — e.g. shipped over the fdqd wire
	// protocol, which carries functions by name, never by value.
	FnNames map[int]string
}

// Guarded reports whether the dependency is enforced by an input relation.
func (f FD) Guarded() bool { return f.Guard >= 0 }

// Format renders the FD like "{x,z}->{u}".
func (f FD) Format(names []string) string {
	return f.From.Format(names) + "->" + f.To.Format(names)
}

// Set is a collection of functional dependencies over K variables.
type Set struct {
	K   int
	FDs []FD
}

// NewSet creates an empty FD set over k variables.
func NewSet(k int) *Set {
	if k < 0 || k > varset.MaxVars {
		panic(fmt.Sprintf("fd: variable count %d out of range", k))
	}
	return &Set{K: k}
}

// Add appends a dependency From → To. It returns the receiver for chaining.
func (s *Set) Add(from, to varset.Set, guard int, fns map[int]UDF) *Set {
	u := varset.Universe(s.K)
	if !u.ContainsAll(from) || !u.ContainsAll(to) {
		panic("fd: FD mentions variables outside the universe")
	}
	s.FDs = append(s.FDs, FD{From: from, To: to, Guard: guard, Fns: fns})
	return s
}

// AddGuarded appends a guarded dependency.
func (s *Set) AddGuarded(from, to varset.Set, guard int) *Set {
	return s.Add(from, to, guard, nil)
}

// AddUDF appends an unguarded dependency From → {to} computed by fn.
func (s *Set) AddUDF(from varset.Set, to int, fn UDF) *Set {
	return s.Add(from, varset.Single(to), -1, map[int]UDF{to: fn})
}

// Closure returns X⁺, the smallest superset of x closed under every
// dependency: U → V ∈ FDs and U ⊆ X⁺ imply V ⊆ X⁺.
func (s *Set) Closure(x varset.Set) varset.Set {
	cl := x
	for changed := true; changed; {
		changed = false
		for _, f := range s.FDs {
			if cl.ContainsAll(f.From) && !cl.ContainsAll(f.To) {
				cl = cl.Union(f.To)
				changed = true
			}
		}
	}
	return cl
}

// String renders the FD set.
func (s *Set) String() string { return s.Format(nil) }

// Format renders the FD set with variable names.
func (s *Set) Format(names []string) string {
	parts := make([]string, len(s.FDs))
	for i, f := range s.FDs {
		parts[i] = f.Format(names)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// AttachUDFs decorates every unguarded FD with UDFs produced by the
// provider, which receives the determining set and one dependent variable
// and returns the function computing that variable (nil leaves the target
// without one, which query.CheckComputable refuses).
func (s *Set) AttachUDFs(provider func(from varset.Set, to int) UDF) {
	for i := range s.FDs {
		f := &s.FDs[i]
		if f.Guarded() {
			continue
		}
		if f.Fns == nil {
			f.Fns = map[int]UDF{}
		}
		for _, v := range f.To.Members() {
			if f.Fns[v] != nil {
				continue
			}
			if fn := provider(f.From, v); fn != nil {
				f.Fns[v] = fn
			}
		}
	}
}

// FromClosure synthesizes an explicit FD list equivalent to an arbitrary
// closure operator over k variables. It emits, for every subset X of the
// universe with closure(X) ≠ X, the dependency X → closure(X) \ X, skipping
// subsets whose closure is already implied by previously-emitted FDs.
//
// This is exponential in k and intended for constructing the paper's small
// abstract lattices (Fig. 7, 8, 9) as concrete queries with FDs.
func FromClosure(k int, closure func(varset.Set) varset.Set) *Set {
	s := NewSet(k)
	u := varset.Universe(k)
	// Enumerate subsets in increasing cardinality so smaller generators are
	// preferred.
	bySize := make([][]varset.Set, k+1)
	u.Subsets(func(x varset.Set) bool {
		bySize[x.Len()] = append(bySize[x.Len()], x)
		return true
	})
	for size := 0; size <= k; size++ {
		for _, x := range bySize[size] {
			cl := closure(x)
			if cl == x {
				continue
			}
			if s.Closure(x) == cl {
				continue // already implied
			}
			s.Add(x, cl.Diff(x), -1, nil)
		}
	}
	return s
}
