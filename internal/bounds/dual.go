package bounds

import (
	"math/big"

	"repro/internal/lattice"
	"repro/internal/lp"
)

// DualLLP is the explicit dual of the lattice linear program (Eq. 8 of the
// paper, completed with one flow-conservation row per lattice element):
//
//	min Σ_j w_j·n_j
//	s.t. Σ_{X≁Y, X∨Y=1̂} s_{X,Y} ≥ 1
//	     w_j·[Z=R_j] + Σ_{X∨Y=Z} s_{X,Y} + Σ_{X∧Y=Z} s_{X,Y}
//	        − Σ_{Y≁Z} s_{Z,Y} ≥ 0          for every Z ∈ L \ {0̂, 1̂}
//	     w, s ≥ 0
//
// Its feasible (w, s) are exactly the SM-provable output inequalities
// (Lemma 3.9); its optimum equals the LLP optimum by strong duality.
type DualLLP struct {
	Objective *big.Rat
	W         []*big.Rat
	S         map[SubmodPair]*big.Rat
}

// SolveDualLLP builds and solves the explicit dual. Pairs are ordered
// (min, max) by element index. The SM proof search (smalg.FindProofAuto)
// reads its w when the LLP solver's own dual weights have no good proof.
func SolveDualLLP(l *lattice.Lattice, inputs []int, logSizes []*big.Rat) *DualLLP {
	n := l.Size()
	rows := submodRows(l)
	nw := len(inputs)
	p := lp.NewProblem(nw+len(rows), false)
	for j := range inputs {
		p.SetObj(j, logSizes[j])
	}
	one := big.NewRat(1, 1)
	zero := new(big.Rat)

	// Row for 1̂: Σ_{X∨Y=1̂} s ≥ 1, unless 1̂ = 0̂ (every variable is
	// determined by ∅), where h(1̂) = h(0̂) = 0 needs no cover.
	var topTerms []lp.Term
	for i, r := range rows {
		if r.join == l.Top {
			topTerms = append(topTerms, term(nw+i, 1))
		}
	}
	// 1̂ can itself be an input with positive weight.
	for j, r := range inputs {
		if r == l.Top {
			topTerms = append(topTerms, term(j, 1))
		}
	}
	if l.Top != l.Bottom {
		p.Add(lp.GE, one, topTerms...)
	}

	// One row per Z ∈ L \ {0̂, 1̂}.
	for z := 0; z < n; z++ {
		if z == l.Bottom || z == l.Top {
			continue
		}
		var terms []lp.Term
		for j, r := range inputs {
			if r == z {
				terms = append(terms, term(j, 1))
			}
		}
		for i, r := range rows {
			c := 0
			if r.join == z {
				c++
			}
			if r.meet == z {
				c++
			}
			if r.X == z || r.Y == z {
				c--
			}
			if c != 0 {
				terms = append(terms, term(nw+i, int64(c)))
			}
		}
		if len(terms) == 0 {
			continue
		}
		p.Add(lp.GE, zero, terms...)
	}

	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		panic("bounds: dual LLP must be solvable (LLP is bounded)")
	}
	out := &DualLLP{Objective: sol.Objective, W: sol.X[:nw], S: map[SubmodPair]*big.Rat{}}
	for i, r := range rows {
		if sol.X[nw+i].Sign() != 0 {
			out.S[r.SubmodPair] = sol.X[nw+i]
		}
	}
	return out
}
