package lp

import (
	"math/big"
	"math/rand"
	"testing"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }
func ri(v int64) *big.Rat     { return new(big.Rat).SetInt64(v) }

// TR is T with a rational coefficient.
func TR(v int, c *big.Rat) Term { return Term{Var: v, Coef: new(big.Rat).Set(c)} }

func mustSolve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMaxSimple(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x ≤ 2  →  x=2, y=2, obj=10.
	p := NewProblem(2, true)
	p.SetObj(0, ri(3))
	p.SetObj(1, ri(2))
	p.Add(LE, ri(4), T(0, 1), T(1, 1))
	p.Add(LE, ri(2), T(0, 1))
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if s.Objective.Cmp(ri(10)) != 0 {
		t.Fatalf("objective %v, want 10", s.Objective)
	}
	if s.X[0].Cmp(ri(2)) != 0 || s.X[1].Cmp(ri(2)) != 0 {
		t.Fatalf("x = %v", s.X)
	}
}

func TestMinWithGE(t *testing.T) {
	// min x + y s.t. x + 2y ≥ 4, 3x + y ≥ 6 → x=8/5, y=6/5, obj=14/5.
	p := NewProblem(2, false)
	p.SetObj(0, ri(1))
	p.SetObj(1, ri(1))
	p.Add(GE, ri(4), T(0, 1), T(1, 2))
	p.Add(GE, ri(6), T(0, 3), T(1, 1))
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if s.Objective.Cmp(rat(14, 5)) != 0 {
		t.Fatalf("objective %v, want 14/5", s.Objective)
	}
}

func TestEquality(t *testing.T) {
	// max x + y s.t. x + y = 3, x ≤ 1 → obj 3.
	p := NewProblem(2, true)
	p.SetObj(0, ri(1))
	p.SetObj(1, ri(1))
	p.Add(EQ, ri(3), T(0, 1), T(1, 1))
	p.Add(LE, ri(1), T(0, 1))
	s := mustSolve(t, p)
	if s.Status != Optimal || s.Objective.Cmp(ri(3)) != 0 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1, true)
	p.SetObj(0, ri(1))
	p.Add(LE, ri(1), T(0, 1))
	p.Add(GE, ri(2), T(0, 1))
	s := mustSolve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2, true)
	p.SetObj(0, ri(1))
	p.Add(LE, ri(5), T(1, 1)) // x0 unconstrained above
	s := mustSolve(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestNegativeRHS(t *testing.T) {
	// max -x s.t. -x ≤ -2  (i.e. x ≥ 2) → x=2, obj=-2.
	p := NewProblem(1, true)
	p.SetObj(0, ri(-1))
	p.Add(LE, ri(-2), T(0, -1))
	s := mustSolve(t, p)
	if s.Status != Optimal || s.Objective.Cmp(ri(-2)) != 0 {
		t.Fatalf("got %v obj %v", s.Status, s.Objective)
	}
}

func TestDegenerateBlandTerminates(t *testing.T) {
	// A classically degenerate LP (Beale-like); Bland's rule must terminate.
	p := NewProblem(4, false)
	p.SetObj(0, rat(-3, 4))
	p.SetObj(1, ri(150))
	p.SetObj(2, rat(-1, 50))
	p.SetObj(3, ri(6))
	p.Add(LE, ri(0), TR(0, rat(1, 4)), T(1, -60), TR(2, rat(-1, 25)), T(3, 9))
	p.Add(LE, ri(0), TR(0, rat(1, 2)), T(1, -90), TR(2, rat(-1, 50)), T(3, 3))
	p.Add(LE, ri(1), T(2, 1))
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if s.Objective.Cmp(rat(-1, 20)) != 0 {
		t.Fatalf("objective %v, want -1/20", s.Objective)
	}
}

func TestTriangleEdgeCover(t *testing.T) {
	// min w1+w2+w3 s.t. each triangle node covered: the fractional edge
	// cover number of the triangle is 3/2 (paper Sec. 2).
	p := NewProblem(3, false)
	for j := 0; j < 3; j++ {
		p.SetObj(j, ri(1))
	}
	p.Add(GE, ri(1), T(0, 1), T(2, 1)) // node x: edges xy, zx
	p.Add(GE, ri(1), T(0, 1), T(1, 1)) // node y
	p.Add(GE, ri(1), T(1, 1), T(2, 1)) // node z
	s := mustSolve(t, p)
	if s.Objective.Cmp(rat(3, 2)) != 0 {
		t.Fatalf("ρ* = %v, want 3/2", s.Objective)
	}
	for j := 0; j < 3; j++ {
		if s.X[j].Cmp(rat(1, 2)) != 0 {
			t.Fatalf("w[%d] = %v, want 1/2", j, s.X[j])
		}
	}
}

func TestStrongDualityMax(t *testing.T) {
	// max 5x + 4y s.t. 6x + 4y ≤ 24, x + 2y ≤ 6 → obj 21, duals (3/4, 1/2).
	p := NewProblem(2, true)
	p.SetObj(0, ri(5))
	p.SetObj(1, ri(4))
	p.Add(LE, ri(24), T(0, 6), T(1, 4))
	p.Add(LE, ri(6), T(0, 1), T(1, 2))
	s := mustSolve(t, p)
	if s.Objective.Cmp(ri(21)) != 0 {
		t.Fatalf("objective %v, want 21", s.Objective)
	}
	if s.Y[0].Cmp(rat(3, 4)) != 0 || s.Y[1].Cmp(rat(1, 2)) != 0 {
		t.Fatalf("duals %v, %v; want 3/4, 1/2", s.Y[0], s.Y[1])
	}
	// b·y = objective
	by := new(big.Rat)
	by.Add(new(big.Rat).Mul(ri(24), s.Y[0]), new(big.Rat).Mul(ri(6), s.Y[1]))
	if by.Cmp(s.Objective) != 0 {
		t.Fatalf("b·y = %v != objective %v", by, s.Objective)
	}
}

func TestDualOfMinProblem(t *testing.T) {
	// min x + y s.t. x + 2y ≥ 4, 3x + y ≥ 6. Dual: max 4u + 6v s.t.
	// u + 3v ≤ 1, 2u + v ≤ 1 → u = 2/5, v = 1/5. With min convention the
	// returned duals on ≥ rows are those non-negative multipliers.
	p := NewProblem(2, false)
	p.SetObj(0, ri(1))
	p.SetObj(1, ri(1))
	p.Add(GE, ri(4), T(0, 1), T(1, 2))
	p.Add(GE, ri(6), T(0, 3), T(1, 1))
	s := mustSolve(t, p)
	if s.Y[0].Cmp(rat(2, 5)) != 0 || s.Y[1].Cmp(rat(1, 5)) != 0 {
		t.Fatalf("duals %v %v, want 2/5 1/5", s.Y[0], s.Y[1])
	}
}

func TestEqualityDualFree(t *testing.T) {
	// max x s.t. x = 3 → dual on the equality row is 1 (free sign allowed).
	p := NewProblem(1, true)
	p.SetObj(0, ri(1))
	p.Add(EQ, ri(3), T(0, 1))
	s := mustSolve(t, p)
	if s.Objective.Cmp(ri(3)) != 0 {
		t.Fatalf("obj %v", s.Objective)
	}
	if s.Y[0].Cmp(ri(1)) != 0 {
		t.Fatalf("dual %v, want 1", s.Y[0])
	}
}

func TestRedundantRow(t *testing.T) {
	// Equality system with a redundant row (phase-1 artificial cannot be
	// driven out): x + y = 2, 2x + 2y = 4.
	p := NewProblem(2, true)
	p.SetObj(0, ri(1))
	p.Add(EQ, ri(2), T(0, 1), T(1, 1))
	p.Add(EQ, ri(4), T(0, 2), T(1, 2))
	s := mustSolve(t, p)
	if s.Status != Optimal || s.Objective.Cmp(ri(2)) != 0 {
		t.Fatalf("got %v obj %v, want optimal 2", s.Status, s.Objective)
	}
}

func TestZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem.
	p := NewProblem(2, true)
	p.Add(GE, ri(1), T(0, 1), T(1, 1))
	p.Add(LE, ri(3), T(0, 1))
	s := mustSolve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
}

// Randomized strong-duality property test: generate random feasible bounded
// max LPs (all-≤ rows with non-negative RHS guarantee feasibility; a box on
// every variable guarantees boundedness) and check objective == b·y and
// complementary slackness.
func TestRandomStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		p := NewProblem(n, true)
		for j := 0; j < n; j++ {
			p.SetObj(j, ri(int64(rng.Intn(9)-3)))
		}
		for i := 0; i < m; i++ {
			terms := []Term{}
			for j := 0; j < n; j++ {
				terms = append(terms, T(j, int64(rng.Intn(5))))
			}
			p.Add(LE, ri(int64(rng.Intn(10))), terms...)
		}
		for j := 0; j < n; j++ {
			p.Add(LE, ri(int64(1+rng.Intn(8))), T(j, 1)) // box
		}
		s := mustSolve(t, p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, s.Status)
		}
		// Strong duality: obj = Σ y_i b_i.
		by := new(big.Rat)
		for i, c := range p.Cons {
			by.Add(by, new(big.Rat).Mul(s.Y[i], c.RHS))
		}
		if by.Cmp(s.Objective) != 0 {
			t.Fatalf("trial %d: b·y = %v != obj %v", trial, by, s.Objective)
		}
		// Dual feasibility for max/≤: y ≥ 0 and Aᵀy ≥ c.
		for i := range p.Cons {
			if s.Y[i].Sign() < 0 {
				t.Fatalf("trial %d: negative dual on ≤ row", trial)
			}
		}
		for j := 0; j < n; j++ {
			col := new(big.Rat)
			for i, c := range p.Cons {
				for _, term := range c.Terms {
					if term.Var == j {
						col.Add(col, new(big.Rat).Mul(s.Y[i], term.Coef))
					}
				}
			}
			cj := new(big.Rat)
			if p.Obj[j] != nil {
				cj.Set(p.Obj[j])
			}
			if col.Cmp(cj) < 0 {
				t.Fatalf("trial %d: dual infeasible at var %d: %v < %v", trial, j, col, cj)
			}
		}
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(&Problem{NumVars: 0}); err == nil {
		t.Fatal("expected error for zero variables")
	}
	p := NewProblem(2, true)
	p.Cons = append(p.Cons, Constraint{Terms: []Term{T(2, 1)}, Rel: LE, RHS: ri(1)})
	if _, err := Solve(p); err == nil {
		t.Fatal("expected error for a term variable out of range")
	}
}
