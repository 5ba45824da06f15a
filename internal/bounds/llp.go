package bounds

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/query"
)

// SubmodPair identifies a sub-modularity constraint row for the incomparable
// pair (X, Y) of lattice element indices, X < Y numerically.
type SubmodPair struct {
	X, Y int
}

// incomparablePairs lists the lattice's incomparable pairs in the order
// every LP over it gives their sub-modularity rows.
func incomparablePairs(l *lattice.Lattice) []SubmodPair {
	var pairs []SubmodPair
	for x := 0; x < l.Size(); x++ {
		for y := x + 1; y < l.Size(); y++ {
			if l.Incomparable(x, y) {
				pairs = append(pairs, SubmodPair{x, y})
			}
		}
	}
	return pairs
}

// addSubmodularity adds h(X∧Y) + h(X∨Y) − h(X) − h(Y) ≤ 0 over variables
// h(X) = x_X for every incomparable pair and returns the pairs, in row order.
func addSubmodularity(p *lp.Problem, l *lattice.Lattice) []SubmodPair {
	pairs := incomparablePairs(l)
	zero := new(big.Rat)
	for _, pr := range pairs {
		x, y := pr.X, pr.Y
		p.Add(lp.LE, zero, lp.T(l.Meet(x, y), 1), lp.T(l.Join(x, y), 1), lp.T(x, -1), lp.T(y, -1))
	}
	return pairs
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

// Bound returns 2^LogBound as float64.
func (r *LLPResult) Bound() float64 {
	f, _ := r.LogBound.Float64()
	return math.Exp2(f)
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
func LLP(q *query.Q) *LLPResult {
	l, inputs, logSizes := q.Lattice(), q.InputElems(), q.LogSizes()
	n := l.Size()
	p := lp.NewProblem(n, true)
	one := big.NewRat(1, 1)
	p.SetObj(l.Top, one)

	pairs := addSubmodularity(p, l)
	for j, r := range inputs {
		p.Add(lp.LE, logSizes[j], lp.T(r, 1))
	}
	// h(0̂) = 0.
	p.Add(lp.LE, new(big.Rat), lp.T(l.Bottom, 1))

	sol, err := lp.Solve(p)
	if err != nil {
		panic(fmt.Sprintf("bounds: LLP solve failed: %v", err))
	}
	if sol.Status != lp.Optimal {
		panic(fmt.Sprintf("bounds: LLP status %v (expected optimal: the LLP is always feasible and bounded)", sol.Status))
	}
	res := &LLPResult{
		LogBound: sol.Objective,
		H:        sol.X,
		W:        make([]*big.Rat, len(inputs)),
		S:        map[SubmodPair]*big.Rat{},
		Pairs:    pairs,
		Lat:      l,
		Inputs:   inputs,
	}
	for i, pr := range pairs {
		if sol.Y[i].Sign() != 0 {
			res.S[pr] = sol.Y[i]
		}
	}
	for j := range inputs {
		res.W[j] = sol.Y[len(pairs)+j]
	}
	return res
}

// Monotonize applies Lovász's monotonization (Prop. B.1): given a feasible
// non-negative L-submodular h it returns the polymatroid
// h̄(X) = min_{Y ≥ X} h(Y), with h̄(1̂) = h(1̂) and h̄ ≤ h.
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

// IsPolymatroid checks non-negativity, monotonicity, submodularity and
// h(0̂) = 0 of a vector over the lattice.
func IsPolymatroid(l *lattice.Lattice, h []*big.Rat) bool {
	if h[l.Bottom].Sign() != 0 {
		return false
	}
	n := l.Size()
	for x := 0; x < n; x++ {
		if h[x].Sign() < 0 {
			return false
		}
		for y := 0; y < n; y++ {
			if l.Leq(x, y) && h[x].Cmp(h[y]) > 0 {
				return false
			}
		}
	}
	lhs := new(big.Rat)
	rhs := new(big.Rat)
	for _, pr := range incomparablePairs(l) {
		lhs.Add(h[pr.X], h[pr.Y])
		rhs.Add(h[l.Meet(pr.X, pr.Y)], h[l.Join(pr.X, pr.Y)])
		if rhs.Cmp(lhs) > 0 {
			return false
		}
	}
	return true
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
	p.Add(lp.LE, new(big.Rat), lp.T(l.Bottom, 1))
	p.Add(lp.LE, one, lp.T(l.Top, 1)) // normalization
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		panic("bounds: output inequality LP must be solvable")
	}
	return sol.Objective.Sign() <= 0
}
