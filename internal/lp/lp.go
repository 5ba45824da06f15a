// Package lp implements an exact rational linear-program solver: a two-phase
// primal simplex with Bland's anti-cycling rule over exact.Num, a rational
// held by value as an int64 fraction that becomes a big.Rat only when a
// product or sum leaves 63 bits.
//
// Vertices walks the same tableau from basis to basis to enumerate the
// vertices of a feasible region (vertices.go).
//
// All linear programs in this repository — the lattice linear program (LLP,
// Eq. 5 of the paper), its dual (Eq. 8), the conditional LLP (Sec. 5.3.1),
// and fractional edge cover / vertex packing programs — are small (tens of
// variables, hundreds of constraints) with coefficients in {−1, 0, 1}; only
// the right-hand sides and costs (53-bit dyadic log sizes) are ever wide. A
// dense exact-arithmetic simplex is fast enough and, crucially, yields the
// exact rational vertex solutions (w_j = q_j / d) that the SM and CSM
// proof-sequence constructions require. Because the arithmetic is exact and
// the pivot rule is deterministic, the pivot sequence — and with it every
// returned value — does not depend on how a number is represented; the
// big.Rat solver this kernel replaced lives on in reference_test.go, and the
// tests require bit-identical solutions from both.
//
// Dual values are read off the final reduced-cost row. Conventions: for a
// maximization problem, the returned dual y satisfies objective = b·y with
// y_i ≥ 0 on ≤ rows, y_i ≤ 0 on ≥ rows, free on = rows. For a minimization
// problem the signs flip (y_i ≤ 0 on ≤ rows, y_i ≥ 0 on ≥ rows).
package lp

import (
	"fmt"
	"math/big"

	"repro/internal/exact"
)

// Rel is the relation of a constraint row.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // ≤
	GE            // ≥
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Status describes the outcome of Solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return "unbounded"
	}
}

// Term is a (variable, coefficient) pair of a sparse constraint row.
type Term struct {
	Var  int
	Coef *big.Rat
}

// T is shorthand for building a Term with an integer coefficient.
func T(v int, c int64) Term { return Term{Var: v, Coef: new(big.Rat).SetInt64(c)} }

// Constraint is a single linear constraint Σ Terms[k].Coef·x_{Terms[k].Var}
// Rel RHS. Variables not named have coefficient zero; repeated variables
// accumulate.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   *big.Rat
}

// Problem is a linear program over variables x_0..x_{NumVars-1} ≥ 0.
type Problem struct {
	Maximize bool
	NumVars  int
	Obj      []*big.Rat // objective coefficients; nil entries mean zero
	Cons     []Constraint
}

// NewProblem creates an empty problem with n non-negative variables.
func NewProblem(n int, maximize bool) *Problem {
	return &Problem{Maximize: maximize, NumVars: n, Obj: make([]*big.Rat, n)}
}

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c *big.Rat) {
	p.Obj[j] = new(big.Rat).Set(c)
}

// Add appends a constraint built from sparse terms. Repeated variables
// accumulate. The terms' coefficients and rhs are read by Solve, not
// copied: do not modify them in between.
func (p *Problem) Add(rel Rel, rhs *big.Rat, terms ...Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.NumVars {
			panic(fmt.Sprintf("lp: term variable %d out of range [0,%d)", t.Var, p.NumVars))
		}
	}
	p.Cons = append(p.Cons, Constraint{Terms: append([]Term(nil), terms...), Rel: rel, RHS: rhs})
}

// Solution holds the result of Solve.
type Solution struct {
	Status    Status
	Objective *big.Rat   // meaningful only when Status == Optimal
	X         []*big.Rat // primal values, length NumVars
	Y         []*big.Rat // dual values per constraint (see package comment)
}

// tableau is the dense simplex state, always a minimization min c̃·x over
// equality rows with RHS ≥ 0. It is one flat row-major slice of m+1 rows by
// n+1 columns: row i < m is constraint i with its right-hand side in column
// n; row m is the reduced-cost row c̄_j = c̃_j − c̃_B·B⁻¹·A_j of the current
// phase, set up once by setCost and then carried through every pivot like
// any other row (its column n holds minus the phase objective).
type tableau struct {
	m, n     int         // constraint rows, columns (structural + slack + artificial)
	nStruct  int         // number of structural (original) variables
	a        []exact.Num // (m+1)×(n+1), mutated by pivots
	basis    []int       // basic variable per row
	basic    []bool      // per column: is it in basis
	nz       []int       // scratch: non-zero columns of the pivot row
	artStart int         // columns ≥ artStart are artificial
	initCol  []int       // per original row: column of the initial basis var
	sigma    []int       // per original row: +1 if stored as-is, -1 if negated
}

func (t *tableau) row(i int) []exact.Num { return t.a[i*(t.n+1) : (i+1)*(t.n+1)] }

// testHookSolve, when a test of this package sets it, sees every problem
// Solve or Vertices is given; the catalog test collects through it the LPs
// the bound layers actually build.
var testHookSolve func(*Problem)

// Solve runs the two-phase simplex and returns an optimal solution with
// primal and dual values, or an Infeasible/Unbounded status.
func Solve(p *Problem) (*Solution, error) {
	t, err := phase1(p)
	if err != nil {
		return nil, err
	}
	if t == nil {
		return &Solution{Status: Infeasible}, nil
	}

	// Phase 2: minimize c̃ over structural variables (artificials barred),
	// where c̃ = −Obj for maximization and +Obj for minimization.
	t.setCost(func(j int) exact.Num {
		if j >= t.nStruct || p.Obj[j] == nil {
			return exact.Num{}
		}
		c := exact.FromRat(p.Obj[j])
		if p.Maximize {
			return c.Neg()
		}
		return c
	})
	if status := t.run(true); status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}
	return t.extract(p), nil
}

// phase1 checks p, builds its tableau and, when the tableau has artificial
// columns, minimizes their sum and drives them out of the basis. It returns
// the tableau at a feasible basis, or nil when p is infeasible.
func phase1(p *Problem) (*tableau, error) {
	if testHookSolve != nil {
		testHookSolve(p)
	}
	if p.NumVars <= 0 {
		return nil, fmt.Errorf("lp: problem has no variables")
	}
	for _, c := range p.Cons {
		for _, term := range c.Terms {
			if term.Var < 0 || term.Var >= p.NumVars {
				return nil, fmt.Errorf("lp: constraint term variable %d out of range [0,%d)", term.Var, p.NumVars)
			}
		}
	}
	t := buildTableau(p)
	if t.artStart == t.n {
		return t, nil
	}
	t.setCost(func(j int) exact.Num {
		if j >= t.artStart {
			return exact.Int(1)
		}
		return exact.Num{}
	})
	if status := t.run(false); status == Unbounded {
		return nil, fmt.Errorf("lp: phase 1 unbounded (internal error)")
	}
	// Infeasible if any artificial is basic with positive value.
	var obj exact.Num
	for i, bi := range t.basis {
		if bi >= t.artStart {
			obj = obj.Add(t.row(i)[t.n])
		}
	}
	if obj.Sign() > 0 {
		return nil, nil
	}
	t.driveOutArtificials()
	return t, nil
}

// buildTableau converts the problem to standard equality form with RHS ≥ 0.
func buildTableau(p *Problem) *tableau {
	m := len(p.Cons)
	n := p.NumVars

	// Count slack/surplus and artificial columns.
	nSlack, nArt := 0, 0
	for _, c := range p.Cons {
		rel := c.Rel
		if c.RHS.Sign() < 0 {
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
	t := &tableau{
		m: m, n: total, nStruct: n,
		a:        make([]exact.Num, (m+1)*(total+1)),
		basis:    make([]int, m),
		basic:    make([]bool, total),
		nz:       make([]int, 0, total+1),
		artStart: n + nSlack,
		initCol:  make([]int, m),
		sigma:    make([]int, m),
	}
	slackCol := n
	artCol := n + nSlack
	for i, c := range p.Cons {
		row := t.row(i)
		rhs := exact.FromRat(c.RHS)
		sigma := 1
		if rhs.Sign() < 0 {
			sigma = -1
			rhs = rhs.Neg()
		}
		row[total] = rhs
		for _, term := range c.Terms {
			v := exact.FromRat(term.Coef)
			if sigma < 0 {
				v = v.Neg()
			}
			row[term.Var] = row[term.Var].Add(v)
		}
		rel := c.Rel
		if sigma < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			row[slackCol] = exact.Int(1)
			t.initCol[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = exact.Int(-1)
			slackCol++
			row[artCol] = exact.Int(1)
			t.initCol[i] = artCol
			artCol++
		case EQ:
			row[artCol] = exact.Int(1)
			t.initCol[i] = artCol
			artCol++
		}
		t.basis[i] = t.initCol[i]
		t.basic[t.initCol[i]] = true
		t.sigma[i] = sigma
	}
	return t
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// setCost starts a phase: it fills the reduced-cost row for the cost vector
// cost(j) at the current basis, c̄_j = cost_j − Σ_i cost_{basis[i]}·a[i][j]
// (column n likewise, giving minus the objective).
func (t *tableau) setCost(cost func(j int) exact.Num) {
	rc := t.row(t.m)
	for j := 0; j < t.n; j++ {
		rc[j] = cost(j)
	}
	rc[t.n] = exact.Num{}
	for i := 0; i < t.m; i++ {
		cb := cost(t.basis[i])
		if cb.IsZero() {
			continue
		}
		for j, v := range t.row(i) {
			if !v.IsZero() {
				rc[j] = rc[j].SubMul(cb, v)
			}
		}
	}
}

// run performs simplex iterations minimizing the phase's cost, using
// Bland's rule. If barArtificials is true, artificial columns never enter.
func (t *tableau) run(barArtificials bool) Status {
	for {
		col := t.entering(barArtificials)
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

// entering returns the smallest-index non-basic column with negative
// reduced cost, or -1 if none (Bland's rule).
func (t *tableau) entering(barArtificials bool) int {
	end := t.n
	if barArtificials {
		end = t.artStart
	}
	for j, c := range t.row(t.m)[:end] {
		if c.Sign() < 0 && !t.basic[j] {
			return j
		}
	}
	return -1
}

// leaving returns the minimum-ratio row for the entering column, breaking
// ties by the smallest basic-variable index (Bland). Returns -1 when the
// column is unbounded below.
func (t *tableau) leaving(col int) int {
	best := -1
	var bestRatio exact.Num
	for i := 0; i < t.m; i++ {
		row := t.row(i)
		if row[col].Sign() <= 0 {
			continue
		}
		ratio := row[t.n].Quo(row[col])
		if best >= 0 {
			c := ratio.Cmp(bestRatio)
			if c > 0 || (c == 0 && t.basis[i] >= t.basis[best]) {
				continue
			}
		}
		best, bestRatio = i, ratio
	}
	return best
}

// pivot performs a full-tableau pivot on (row, col): the pivot row is
// scaled to make the pivot 1, then eliminated from every other row with a
// non-zero in col (the reduced-cost row included), visiting only the
// columns in which the pivot row is non-zero.
func (t *tableau) pivot(row, col int) {
	pr := t.row(row)
	inv := pr[col].Inv()
	nz := t.nz[:0]
	for j, v := range pr {
		if !v.IsZero() {
			pr[j] = v.Mul(inv)
			nz = append(nz, j)
		}
	}
	for i := 0; i <= t.m; i++ {
		if i == row {
			continue
		}
		r := t.row(i)
		f := r[col]
		if f.IsZero() {
			continue
		}
		for _, j := range nz {
			r[j] = r[j].SubMul(f, pr[j])
		}
	}
	t.basic[t.basis[row]] = false
	t.basic[col] = true
	t.basis[row] = col
}

// driveOutArtificials pivots basic artificial variables (necessarily at
// value zero after a feasible phase 1) out of the basis where possible.
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		for j, v := range t.row(i)[:t.artStart] {
			if !t.basic[j] && !v.IsZero() {
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
// phase-2 tableau.
func (t *tableau) extract(p *Problem) *Solution {
	// One backing array per vector: a zero big.Rat owns no further memory.
	xs := make([]big.Rat, p.NumVars)
	x := make([]*big.Rat, p.NumVars)
	for j := range x {
		x[j] = &xs[j]
	}
	for i, bi := range t.basis {
		if bi < p.NumVars {
			t.row(i)[t.n].SetRat(x[bi])
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

	// Duals: ŷ_i = c̃_B·B⁻¹·e_i. Row i's initial basis column is e_i with
	// phase-2 cost 0 (it is a slack or an artificial), so its reduced cost
	// is −ŷ_i. Then y_i = −σ_i·ŷ_i in the max convention; negated for min.
	rc := t.row(t.m)
	ys := make([]big.Rat, t.m)
	y := make([]*big.Rat, t.m)
	for i := range y {
		yi := rc[t.initCol[i]]
		if (t.sigma[i] > 0) != p.Maximize {
			yi = yi.Neg()
		}
		y[i] = yi.SetRat(&ys[i])
	}
	return &Solution{Status: Optimal, Objective: obj, X: x, Y: y}
}
