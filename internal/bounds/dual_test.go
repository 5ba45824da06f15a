package bounds

import (
	"math/big"
	"testing"

	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// The explicit dual (Eq. 8) must match the primal LLP optimum by strong
// duality, on every paper query.
func TestDualLLPStrongDuality(t *testing.T) {
	qs := map[string]*query.Q{
		"triangle": paper.TriangleProduct(4),
		"fig1":     paper.Fig1QuasiProduct(16),
		"m3":       paper.M3Instance(8),
		"fig5":     paper.Fig5Instance(8),
	}
	q4, _ := paper.Fig4Instance(27)
	qs["fig4"] = q4
	q9, _ := paper.Fig9Instance(16)
	qs["fig9"] = q9
	// ∅ → x: the lattice is one element, 1̂ = 0̂, and the bound is 2^0.
	constant := query.New("x")
	constant.FDs.Add(varset.Empty, varset.Single(0), -1, nil)
	r := rel.New("R", 0)
	r.Add(1)
	r.Add(2)
	constant.AddRel(r)
	qs["constant"] = constant
	for name, q := range qs {
		llp := LLP(q)
		dual := SolveDualLLP(llp.Lat, llp.Inputs, q.LogSizes())
		if dual.Objective.Cmp(llp.LogBound) != 0 {
			t.Fatalf("%s: dual %v != primal %v", name, dual.Objective, llp.LogBound)
		}
		// The explicit dual's weights must themselves be a valid output
		// inequality (Lemma 3.9 (iii) ⇒ (i)).
		if !OutputInequalityHolds(llp.Lat, llp.Inputs, dual.W) {
			t.Fatalf("%s: dual weights not a valid output inequality", name)
		}
	}
}

// The simplex-extracted duals from the primal solve must achieve the same
// objective as the explicit dual: Σ w_j·n_j = h*(1̂).
func TestSolverDualsMatchExplicitDual(t *testing.T) {
	for _, q := range []*query.Q{paper.Fig1QuasiProduct(16), paper.M3Instance(8)} {
		llp := LLP(q)
		sum := new(big.Rat)
		tmp := new(big.Rat)
		for j, w := range llp.W {
			tmp.Mul(w, q.LogSizes()[j])
			sum.Add(sum, tmp)
		}
		if sum.Cmp(llp.LogBound) != 0 {
			t.Fatalf("solver dual objective %v != %v", sum, llp.LogBound)
		}
	}
}

// The dual weights from the explicit dual are usable by SMA's proof search
// exactly like the simplex ones (sanity of the SubmodPair bookkeeping).
func TestDualSPairsOrdered(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	llp := LLP(q)
	dual := SolveDualLLP(llp.Lat, llp.Inputs, q.LogSizes())
	for pr, s := range dual.S {
		if pr.X >= pr.Y {
			t.Fatalf("pair %v not ordered", pr)
		}
		if s.Sign() < 0 {
			t.Fatal("negative dual s")
		}
		if !llp.Lat.Incomparable(pr.X, pr.Y) {
			t.Fatal("s on comparable pair")
		}
	}
}
