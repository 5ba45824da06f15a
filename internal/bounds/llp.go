package bounds

import (
	"fmt"
	"math/big"
	"slices"

	"repro/internal/exact"
	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/query"
)

// SubmodPair identifies a sub-modularity constraint row for the incomparable
// pair (X, Y) of lattice element indices, X < Y numerically.
type SubmodPair struct {
	X, Y int
}

// submodRow is the sub-modularity row h(X∧Y) + h(X∨Y) − h(X) − h(Y) ≤ 0
// of one incomparable pair.
type submodRow struct {
	SubmodPair
	meet, join int
}

// submodRows lists the lattice's incomparable pairs' rows in the order every
// LP over it adds them.
func submodRows(l *lattice.Lattice) []submodRow {
	var rows []submodRow
	for x := 0; x < l.Size(); x++ {
		for y := x + 1; y < l.Size(); y++ {
			if l.Incomparable(x, y) {
				rows = append(rows, submodRow{SubmodPair{x, y}, l.Meet(x, y), l.Join(x, y)})
			}
		}
	}
	return rows
}

// local reports whether X and Y both cover X∧Y: the lattice analogue of
// Shannon's elemental inequalities.
func (r submodRow) local(l *lattice.Lattice) bool {
	covers := l.UpperCovers(r.meet)
	return slices.Contains(covers, r.X) && slices.Contains(covers, r.Y)
}

// add adds the row to p; zero is its right-hand side.
func (r submodRow) add(p *lp.Problem, zero *big.Rat) {
	p.Add(lp.LE, zero, term(r.meet, 1), term(r.join, 1), term(r.X, -1), term(r.Y, -1))
}

// violated reports whether h breaks the row.
func (r submodRow) violated(h []*big.Rat) bool {
	lhs := exact.FromRat(h[r.meet]).Add(exact.FromRat(h[r.join]))
	return lhs.Cmp(exact.FromRat(h[r.X]).Add(exact.FromRat(h[r.Y]))) > 0
}

var plusOne, minusOne = big.NewRat(1, 1), big.NewRat(-1, 1)

// term is lp.T with the ±1 coefficients shared: Solve only reads a term's
// coefficient, so every row the bound layers build points at plusOne or
// minusOne, which nothing may modify.
func term(v int, c int64) lp.Term {
	switch c {
	case 1:
		return lp.Term{Var: v, Coef: plusOne}
	case -1:
		return lp.Term{Var: v, Coef: minusOne}
	}
	return lp.T(v, c)
}

// addSubmodularity adds every incomparable pair's sub-modularity row over
// variables h(X) = x_X and returns the rows, in order.
func addSubmodularity(p *lp.Problem, l *lattice.Lattice) []submodRow {
	rows := submodRows(l)
	zero := new(big.Rat)
	for _, r := range rows {
		r.add(p, zero)
	}
	return rows
}

// LLPResult holds the primal and dual optimal solutions of the lattice
// linear program (Eq. 5) — the GLVV bound — at a vertex of each polytope.
type LLPResult struct {
	LogBound *big.Rat                // h*(1̂) = log2 GLVV bound
	H        []*big.Rat              // optimal h* per lattice element
	W        []*big.Rat              // dual weights w*_j per input relation
	S        map[SubmodPair]*big.Rat // dual weights s*_{X,Y} per submodular row
	Pairs    []SubmodPair            // all incomparable pairs, fixed order
	Lat      *lattice.Lattice
	Inputs   []int // lattice element per relation
}

// LLP builds and solves the lattice linear program (Eq. 5):
//
//	max h(1̂)
//	s.t. h(X∧Y) + h(X∨Y) − h(X) − h(Y) ≤ 0 for all incomparable X, Y
//	     h(R_j) ≤ n_j
//	     h ≥ 0, h(0̂) = 0
//
// The simplex dual gives the optimal (s*, w*) of the dual LLP (Eq. 8); by
// Lemma 3.9 these coefficients constitute a proof of the output inequality
// Σ_j w*_j·h(R_j) ≥ h(1̂).
//
// The solve generates its sub-modularity rows: it starts from the local
// pairs (X and Y both cover X∧Y) and adds every row the relaxation's
// optimum violates until none is, or every row when a relaxation is
// unbounded. The last relaxation's optimum is feasible for the full program,
// so it is the LLP optimum, and its dual, with s = 0 on the rows never
// added, is feasible for the full dual at the same objective (DESIGN.md,
// "Exact LP kernel").
func LLP(q *query.Q) *LLPResult { return llp(q.Lattice(), q.InputElems(), q.LogSizes()) }

// llp is LLP over the lattice l with the input elements and log sizes.
func llp(l *lattice.Lattice, inputs []int, logSizes []*big.Rat) *LLPResult {
	rows := submodRows(l)
	in := make([]bool, len(rows))
	for i, r := range rows {
		in[i] = r.local(l)
	}
	return solveLLP(l, inputs, logSizes, rows, in)
}

// solveLLP solves the LLP by row generation from the sub-modularity rows
// rows[i] with in[i], which it updates to the rows of the last relaxation.
// Every relaxation keeps its rows in the full program's order.
func solveLLP(l *lattice.Lattice, inputs []int, logSizes []*big.Rat, rows []submodRow, in []bool) *LLPResult {
	sol := solveRelaxation(l, inputs, logSizes, rows, in)
	for addViolated(rows, in, sol) {
		sol = solveRelaxation(l, inputs, logSizes, rows, in)
	}
	res := &LLPResult{
		LogBound: sol.Objective,
		H:        sol.X,
		W:        make([]*big.Rat, len(inputs)),
		S:        map[SubmodPair]*big.Rat{},
		Pairs:    make([]SubmodPair, len(rows)),
		Lat:      l,
		Inputs:   inputs,
	}
	k := 0 // rows of the last relaxation before row i
	for i, r := range rows {
		res.Pairs[i] = r.SubmodPair
		if in[i] {
			if sol.Y[k].Sign() != 0 {
				res.S[r.SubmodPair] = sol.Y[k]
			}
			k++
		}
	}
	for j := range inputs {
		res.W[j] = sol.Y[k+j]
	}
	return res
}

// addViolated adds to in the rows that the relaxation's optimum sol
// violates, or every row when the relaxation is unbounded, and reports
// whether it added any.
func addViolated(rows []submodRow, in []bool, sol *lp.Solution) bool {
	if sol.Status == lp.Unbounded && slices.Contains(in, false) {
		// The local rows alone can leave h(1̂) unbounded on a
		// non-distributive lattice; the full program never is.
		for i := range in {
			in[i] = true
		}
		return true
	}
	if sol.Status != lp.Optimal {
		panic(fmt.Sprintf("bounds: LLP status %v (expected optimal: the LLP is always feasible and bounded)", sol.Status))
	}
	added := false
	for i, r := range rows {
		if !in[i] && r.violated(sol.X) {
			in[i], added = true, true
		}
	}
	return added
}

// solveRelaxation solves max h(1̂) under the sub-modularity rows rows[i]
// with in[i], the input rows and h(0̂) = 0, in that row order.
func solveRelaxation(l *lattice.Lattice, inputs []int, logSizes []*big.Rat, rows []submodRow, in []bool) *lp.Solution {
	p := lp.NewProblem(l.Size(), true)
	p.SetObj(l.Top, plusOne)
	zero := new(big.Rat)
	for i, r := range rows {
		if in[i] {
			r.add(p, zero)
		}
	}
	for j, e := range inputs {
		p.Add(lp.LE, logSizes[j], term(e, 1))
	}
	p.Add(lp.LE, zero, term(l.Bottom, 1))
	sol, err := lp.Solve(p)
	if err != nil {
		panic(fmt.Sprintf("bounds: LLP solve failed: %v", err))
	}
	return sol
}

// Monotonize applies Lovász's monotonization (Prop. B.1): given a feasible
// non-negative L-submodular h it returns the polymatroid
// h̄(X) = min_{Y ≥ X} h(Y), with h̄(1̂) = h(1̂) and h̄ ≤ h. Only tests call
// it until ROADMAP item 11 repairs a non-normal optimal vertex with it.
func Monotonize(l *lattice.Lattice, h []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(h))
	for x := range h {
		if x == l.Bottom {
			out[x] = new(big.Rat)
			continue
		}
		min := new(big.Rat).Set(h[x])
		for y := range h {
			if l.Leq(x, y) && h[y].Cmp(min) < 0 {
				min.Set(h[y])
			}
		}
		out[x] = min
	}
	return out
}

// OutputInequalityHolds decides whether the output inequality (7) with
// weights w holds for ALL non-negative submodular functions on the lattice
// (Lemma 3.9): it maximizes h(1̂) − Σ_j w_j·h(R_j) over the submodular cone
// normalized by h(1̂) ≤ 1 and checks the optimum is ≤ 0.
func OutputInequalityHolds(l *lattice.Lattice, inputs []int, w []*big.Rat) bool {
	n := l.Size()
	p := lp.NewProblem(n, true)
	one := big.NewRat(1, 1)
	objCoef := make([]*big.Rat, n)
	for i := range objCoef {
		objCoef[i] = new(big.Rat)
	}
	objCoef[l.Top].Add(objCoef[l.Top], one)
	for j, r := range inputs {
		objCoef[r].Sub(objCoef[r], w[j])
	}
	for i, c := range objCoef {
		p.SetObj(i, c)
	}
	addSubmodularity(p, l)
	p.Add(lp.LE, new(big.Rat), term(l.Bottom, 1))
	p.Add(lp.LE, one, term(l.Top, 1)) // normalization
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		panic("bounds: output inequality LP must be solvable")
	}
	return sol.Objective.Sign() <= 0
}
