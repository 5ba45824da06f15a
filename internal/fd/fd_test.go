package fd

import (
	"testing"

	"repro/internal/varset"
)

// Variables for the running example of the paper (Fig. 1):
// x=0, y=1, z=2, u=3 with FDs xz → u and yu → x.
func runningExample() *Set {
	s := NewSet(4)
	s.AddUDF(varset.Of(0, 2), 3, func(a []Value) Value { return a[0] })
	s.AddUDF(varset.Of(1, 3), 0, func(a []Value) Value { return a[1] })
	return s
}

func TestClosureRunningExample(t *testing.T) {
	s := runningExample()
	// xz → u: closure({x,z}) = {x,z,u}.
	if got := s.Closure(varset.Of(0, 2)); got != varset.Of(0, 2, 3) {
		t.Fatalf("closure(xz) = %v", got)
	}
	// closure({y,u}) = {x,y,u}.
	if got := s.Closure(varset.Of(1, 3)); got != varset.Of(0, 1, 3) {
		t.Fatalf("closure(yu) = %v", got)
	}
	// Chained: closure({y,z,u}) must fire yu→x: {x,y,z,u}.
	if got := s.Closure(varset.Of(1, 2, 3)); got != varset.Of(0, 1, 2, 3) {
		t.Fatalf("closure(yzu) = %v", got)
	}
	// Singletons are closed.
	for v := 0; v < 4; v++ {
		if !s.Closed(varset.Single(v)) {
			t.Fatalf("singleton %d should be closed", v)
		}
	}
	if !s.Closed(varset.Empty) {
		t.Fatal("empty set should be closed")
	}
}

func TestClosureChaining(t *testing.T) {
	// a→b, b→c: closure({a}) = {a,b,c} requires iteration to fixpoint.
	s := NewSet(3)
	s.AddGuarded(varset.Of(0), varset.Of(1), 0)
	s.AddGuarded(varset.Of(1), varset.Of(2), 0)
	if got := s.Closure(varset.Of(0)); got != varset.Of(0, 1, 2) {
		t.Fatalf("closure(a) = %v", got)
	}
}

func TestImplies(t *testing.T) {
	s := runningExample()
	if !s.Implies(varset.Of(0, 2), varset.Of(3)) {
		t.Fatal("xz → u should be implied")
	}
	if s.Implies(varset.Of(0), varset.Of(3)) {
		t.Fatal("x → u should not be implied")
	}
	// Reflexivity.
	if !s.Implies(varset.Of(0, 1), varset.Of(1)) {
		t.Fatal("reflexive FD should be implied")
	}
}

func TestSimple(t *testing.T) {
	s := NewSet(3)
	s.AddGuarded(varset.Of(0), varset.Of(1), 0)
	if !s.AllSimple() {
		t.Fatal("single simple FD should be AllSimple")
	}
	s.AddGuarded(varset.Of(0, 1), varset.Of(2), 0)
	if s.AllSimple() {
		t.Fatal("xy→z is not simple")
	}
}

func TestRedundant(t *testing.T) {
	// x ↔ y: both are redundant.
	s := NewSet(2)
	s.AddGuarded(varset.Of(0), varset.Of(1), 0)
	s.AddGuarded(varset.Of(1), varset.Of(0), 0)
	if !s.Redundant(0) || !s.Redundant(1) {
		t.Fatal("mutually equivalent variables are redundant")
	}
	if s.RedundantVars() != varset.Of(0, 1) {
		t.Fatalf("RedundantVars = %v", s.RedundantVars())
	}
	// Running example has no redundant variables.
	r := runningExample()
	if r.RedundantVars() != varset.Empty {
		t.Fatalf("running example should have no redundant vars, got %v", r.RedundantVars())
	}
}

func TestGuardedFlag(t *testing.T) {
	s := NewSet(2)
	s.AddGuarded(varset.Of(0), varset.Of(1), 3)
	s.AddUDF(varset.Of(1), 0, func(a []Value) Value { return a[0] })
	if !s.FDs[0].Guarded() || s.FDs[1].Guarded() {
		t.Fatal("guard flags wrong")
	}
}

func TestFormat(t *testing.T) {
	s := NewSet(4)
	s.AddGuarded(varset.Of(0, 2), varset.Of(3), 0)
	got := s.Format([]string{"x", "y", "z", "u"})
	if got != "[{x,z}->{u}]" {
		t.Fatalf("Format = %q", got)
	}
}

func TestFromClosureRoundTrip(t *testing.T) {
	// Build an FD set, derive its closure operator, synthesize a new FD set
	// from the operator, and check the two closure operators agree on every
	// subset.
	orig := runningExample()
	syn := FromClosure(4, orig.Closure)
	varset.Universe(4).Subsets(func(x varset.Set) bool {
		if orig.Closure(x) != syn.Closure(x) {
			t.Fatalf("closures disagree on %v: %v vs %v", x, orig.Closure(x), syn.Closure(x))
		}
		return true
	})
}

func TestFromClosureTrivial(t *testing.T) {
	// Identity closure produces no FDs.
	s := FromClosure(3, func(x varset.Set) varset.Set { return x })
	if len(s.FDs) != 0 {
		t.Fatalf("expected no FDs, got %d", len(s.FDs))
	}
}

func TestClosureMonotoneIdempotentExtensive(t *testing.T) {
	s := runningExample()
	u := varset.Universe(4)
	u.Subsets(func(x varset.Set) bool {
		cx := s.Closure(x)
		if !cx.ContainsAll(x) {
			t.Fatalf("closure not extensive at %v", x)
		}
		if s.Closure(cx) != cx {
			t.Fatalf("closure not idempotent at %v", x)
		}
		u.Subsets(func(y varset.Set) bool {
			if x.ContainsAll(y) && !cx.ContainsAll(s.Closure(y)) {
				t.Fatalf("closure not monotone: %v ⊆ %v", y, x)
			}
			return true
		})
		return true
	})
}

// Closed reports whether x equals its own closure.
func (s *Set) Closed(x varset.Set) bool { return s.Closure(x) == x }

// Implies reports whether the dependency from → to follows from the set
// (Armstrong derivability: to ⊆ closure(from)).
func (s *Set) Implies(from, to varset.Set) bool {
	return s.Closure(from).ContainsAll(to)
}

// AllSimple reports whether every dependency in the set is simple.
func (s *Set) AllSimple() bool {
	for _, f := range s.FDs {
		if !f.Simple() {
			return false
		}
	}
	return true
}

// Redundant reports whether variable x is redundant: there is a set Y not
// containing x with Y ↔ x (Sec. 3.1). Equivalently, x ∈ closure(x⁺ \ {x}).
func (s *Set) Redundant(x int) bool {
	cl := s.Closure(varset.Single(x))
	return s.Closure(cl.Remove(x)).Contains(x)
}

// RedundantVars returns the set of redundant variables.
func (s *Set) RedundantVars() varset.Set {
	var out varset.Set
	for v := 0; v < s.K; v++ {
		if s.Redundant(v) {
			out = out.Add(v)
		}
	}
	return out
}

// Simple reports whether the dependency is of the form u → v for single
// variables u, v (Sec. 2: "simple fd").
func (f FD) Simple() bool { return f.From.Len() == 1 && f.To.Len() == 1 }
