package lp

// The big.Rat simplex that internal/lp shipped before the exact.Num kernel,
// kept verbatim as the reference the kernel is diffed against: same
// standard form, same Bland entering/leaving rule and tie-break, reduced
// costs recomputed from scratch, one heap big.Rat per tableau cell. Only the
// names (ref prefix) and the dense view of a Problem's sparse rows
// (refProblem, densify) are new.

import (
	"fmt"
	"math/big"
)

// refConstraint is a constraint with the dense coefficient row the reference
// solver was written against. Coef entries may be nil, meaning zero.
type refConstraint struct {
	Coef []*big.Rat
	Rel  Rel
	RHS  *big.Rat
}

type refProblem struct {
	Maximize bool
	NumVars  int
	Obj      []*big.Rat
	Cons     []refConstraint
}

// densify builds the reference's dense rows the way the old Problem.Add did:
// repeated variables accumulate.
func densify(p *Problem) *refProblem {
	rp := &refProblem{Maximize: p.Maximize, NumVars: p.NumVars, Obj: p.Obj}
	for _, c := range p.Cons {
		coef := make([]*big.Rat, p.NumVars)
		for _, t := range c.Terms {
			if coef[t.Var] == nil {
				coef[t.Var] = new(big.Rat)
			}
			coef[t.Var].Add(coef[t.Var], t.Coef)
		}
		rp.Cons = append(rp.Cons, refConstraint{Coef: coef, Rel: c.Rel, RHS: c.RHS})
	}
	return rp
}

// refTableau is the internal dense simplex state, always a minimization
// min c̃·x over equality rows with RHS ≥ 0.
type refTableau struct {
	m, n     int          // rows, total columns (structural + slack + artificial)
	nStruct  int          // number of structural (original) variables
	a        [][]*big.Rat // m×n coefficient matrix, mutated by pivots
	b        []*big.Rat   // RHS, length m, kept ≥ 0
	basis    []int        // basic variable per row
	artStart int          // columns ≥ artStart are artificial
	initCol  []int        // per original row: column of the initial basis var
	sigma    []int        // per original row: +1 if stored as-is, -1 if negated
}

// refSolve runs the two-phase simplex and returns an optimal solution with
// primal and dual values, or an Infeasible/Unbounded status.
func refSolve(sp *Problem) (*Solution, error) {
	if sp.NumVars <= 0 {
		return nil, fmt.Errorf("lp: problem has no variables")
	}
	p := densify(sp)
	for _, c := range p.Cons {
		if len(c.Coef) != p.NumVars {
			return nil, fmt.Errorf("lp: constraint coefficient length %d != NumVars %d", len(c.Coef), p.NumVars)
		}
	}
	// Internally minimize c̃ = -Obj for maximization, +Obj for minimization.
	ctil := make([]*big.Rat, p.NumVars)
	for j := 0; j < p.NumVars; j++ {
		ctil[j] = new(big.Rat)
		if p.Obj[j] != nil {
			if p.Maximize {
				ctil[j].Neg(p.Obj[j])
			} else {
				ctil[j].Set(p.Obj[j])
			}
		}
	}

	t := refBuildTableau(p)

	// Phase 1: minimize the sum of artificials, if any exist.
	if t.artStart < t.n {
		phase1 := make([]*big.Rat, t.n)
		for j := range phase1 {
			phase1[j] = new(big.Rat)
			if j >= t.artStart {
				phase1[j].SetInt64(1)
			}
		}
		if status := t.run(phase1, false); status == Unbounded {
			return nil, fmt.Errorf("lp: phase 1 unbounded (internal error)")
		}
		// Infeasible if any artificial is basic with positive value.
		obj := new(big.Rat)
		for i, bi := range t.basis {
			if bi >= t.artStart {
				obj.Add(obj, t.b[i])
			}
		}
		if obj.Sign() > 0 {
			return &Solution{Status: Infeasible}, nil
		}
		t.driveOutArtificials()
	}

	// Phase 2: minimize c̃ over structural variables (artificials barred).
	cost := make([]*big.Rat, t.n)
	for j := range cost {
		cost[j] = new(big.Rat)
		if j < t.nStruct {
			cost[j].Set(ctil[j])
		}
	}
	if status := t.run(cost, true); status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	return t.extract(p, cost)
}

// buildTableau converts the problem to standard equality form with RHS ≥ 0.
func refBuildTableau(p *refProblem) *refTableau {
	m := len(p.Cons)
	n := p.NumVars

	// Count slack/surplus and artificial columns.
	nSlack, nArt := 0, 0
	for _, c := range p.Cons {
		neg := c.RHS.Sign() < 0
		rel := c.Rel
		if neg {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			nSlack++ // slack is the initial basis
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	total := n + nSlack + nArt
	t := &refTableau{
		m: m, n: total, nStruct: n,
		a:        make([][]*big.Rat, m),
		b:        make([]*big.Rat, m),
		basis:    make([]int, m),
		artStart: n + nSlack,
		initCol:  make([]int, m),
		sigma:    make([]int, m),
	}
	slackCol := n
	artCol := n + nSlack
	for i, c := range p.Cons {
		row := make([]*big.Rat, total)
		for j := range row {
			row[j] = new(big.Rat)
		}
		sigma := 1
		rhs := new(big.Rat).Set(c.RHS)
		if rhs.Sign() < 0 {
			sigma = -1
			rhs.Neg(rhs)
		}
		for j := 0; j < n; j++ {
			if c.Coef[j] != nil {
				row[j].Set(c.Coef[j])
				if sigma < 0 {
					row[j].Neg(row[j])
				}
			}
		}
		rel := c.Rel
		if sigma < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			row[slackCol].SetInt64(1)
			t.basis[i] = slackCol
			t.initCol[i] = slackCol
			slackCol++
		case GE:
			row[slackCol].SetInt64(-1)
			slackCol++
			row[artCol].SetInt64(1)
			t.basis[i] = artCol
			t.initCol[i] = artCol
			artCol++
		case EQ:
			row[artCol].SetInt64(1)
			t.basis[i] = artCol
			t.initCol[i] = artCol
			artCol++
		}
		t.sigma[i] = sigma
		t.a[i] = row
		t.b[i] = rhs
	}
	return t
}

// run performs simplex iterations minimizing the given cost vector, using
// Bland's rule. If barArtificials is true, artificial columns never enter.
func (t *refTableau) run(cost []*big.Rat, barArtificials bool) Status {
	for {
		col := t.entering(cost, barArtificials)
		if col < 0 {
			return Optimal
		}
		row := t.leaving(col)
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
}

// entering returns the smallest-index column with negative reduced cost, or
// -1 if none (Bland's rule).
func (t *refTableau) entering(cost []*big.Rat, barArtificials bool) int {
	// reduced cost c̄_j = cost_j − Σ_i cost_{basis[i]}·a[i][j]
	rc := new(big.Rat)
	tmp := new(big.Rat)
	for j := 0; j < t.n; j++ {
		if barArtificials && j >= t.artStart {
			continue
		}
		if t.isBasic(j) {
			continue
		}
		rc.Set(cost[j])
		for i := 0; i < t.m; i++ {
			cb := cost[t.basis[i]]
			if cb.Sign() == 0 || t.a[i][j].Sign() == 0 {
				continue
			}
			tmp.Mul(cb, t.a[i][j])
			rc.Sub(rc, tmp)
		}
		if rc.Sign() < 0 {
			return j
		}
	}
	return -1
}

func (t *refTableau) isBasic(j int) bool {
	for _, b := range t.basis {
		if b == j {
			return true
		}
	}
	return false
}

// leaving returns the minimum-ratio row for the entering column, breaking
// ties by the smallest basic-variable index (Bland). Returns -1 when the
// column is unbounded below.
func (t *refTableau) leaving(col int) int {
	best := -1
	ratio := new(big.Rat)
	bestRatio := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if t.a[i][col].Sign() <= 0 {
			continue
		}
		ratio.Quo(t.b[i], t.a[i][col])
		if best < 0 || ratio.Cmp(bestRatio) < 0 ||
			(ratio.Cmp(bestRatio) == 0 && t.basis[i] < t.basis[best]) {
			best = i
			bestRatio.Set(ratio)
		}
	}
	return best
}

// pivot performs a full-tableau pivot on (row, col).
func (t *refTableau) pivot(row, col int) {
	inv := new(big.Rat).Inv(t.a[row][col])
	for j := 0; j < t.n; j++ {
		t.a[row][j].Mul(t.a[row][j], inv)
	}
	t.b[row].Mul(t.b[row], inv)
	tmp := new(big.Rat)
	for i := 0; i < t.m; i++ {
		if i == row || t.a[i][col].Sign() == 0 {
			continue
		}
		f := new(big.Rat).Set(t.a[i][col])
		for j := 0; j < t.n; j++ {
			if t.a[row][j].Sign() == 0 {
				continue
			}
			tmp.Mul(f, t.a[row][j])
			t.a[i][j].Sub(t.a[i][j], tmp)
		}
		tmp.Mul(f, t.b[row])
		t.b[i].Sub(t.b[i], tmp)
	}
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables (necessarily at
// value zero after a feasible phase 1) out of the basis where possible.
func (t *refTableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if !t.isBasic(j) && t.a[i][j].Sign() != 0 {
				t.pivot(i, j)
				break
			}
		}
		// If no pivot column exists the row is redundant; the artificial
		// stays basic at value 0, which is harmless since phase 2 bars
		// artificials from entering and the row never changes the solution.
	}
}

// extract reads the primal solution, objective, and duals from the final
// tableau.
func (t *refTableau) extract(p *refProblem, cost []*big.Rat) (*Solution, error) {
	x := make([]*big.Rat, p.NumVars)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for i, bi := range t.basis {
		if bi < p.NumVars {
			x[bi].Set(t.b[i])
		}
	}
	obj := new(big.Rat)
	tmp := new(big.Rat)
	for j := 0; j < p.NumVars; j++ {
		if p.Obj[j] != nil && x[j].Sign() != 0 {
			tmp.Mul(p.Obj[j], x[j])
			obj.Add(obj, tmp)
		}
	}

	// Duals: ŷ_i = Σ_r cost[basis[r]]·a[r][initCol[i]] (= c̃_B·B⁻¹ e_i),
	// then y_i = -σ_i·ŷ_i in the max convention; negate again for min.
	y := make([]*big.Rat, t.m)
	for i := 0; i < t.m; i++ {
		yi := new(big.Rat)
		col := t.initCol[i]
		for r := 0; r < t.m; r++ {
			cb := cost[t.basis[r]]
			if cb.Sign() == 0 || t.a[r][col].Sign() == 0 {
				continue
			}
			tmp.Mul(cb, t.a[r][col])
			yi.Add(yi, tmp)
		}
		if t.sigma[i] > 0 {
			yi.Neg(yi)
		}
		if !p.Maximize {
			yi.Neg(yi)
		}
		y[i] = yi
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Y: y}, nil
}
