package bounds

import (
	"fmt"
	"math/big"

	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/query"
)

// DegreePair is one constraint h(Y) − h(X) ≤ LogBound of the conditional
// LLP (Sec. 5.3.1), i.e. an upper bound on the log-degree n_{Y|X}. Guard is
// the index of the relation guarding the bound, or -1 when the bound comes
// from a cardinality (X = 0̂).
type DegreePair struct {
	X, Y     int // lattice element indices, X ≺ Y
	LogBound *big.Rat
	Guard    int
}

// CLLPResult holds the primal and dual solutions of the conditional LLP.
type CLLPResult struct {
	LogBound *big.Rat
	H        []*big.Rat // primal optimum per lattice element
	C        []*big.Rat // dual c_{Y|X} per pair in P
	S        map[SubmodPair]*big.Rat
	M        map[[2]int]*big.Rat // dual m_{X,Y} per monotonicity (cover) row
	P        []DegreePair
	Lat      *lattice.Lattice
}

// CLLP solves the conditional LLP:
//
//	max h(1̂)
//	s.t. h(Y) − h(X) ≤ n_{Y|X}           for (X, Y) ∈ P
//	     h(A∧B) + h(A∨B) − h(A) − h(B) ≤ 0 for incomparable A, B
//	     h(X) − h(Y) ≤ 0                  for covers X ≺ Y
//	     h ≥ 0, h(0̂) = 0
//
// By Prop. 5.32 this specializes to the LLP when P = {(0̂, R_j)}, and it
// strictly generalizes both cardinality and FD constraints via degree
// bounds.
func CLLP(l *lattice.Lattice, P []DegreePair) *CLLPResult {
	n := l.Size()
	p := lp.NewProblem(n, true)
	one := big.NewRat(1, 1)
	zero := new(big.Rat)
	p.SetObj(l.Top, one)

	for _, dp := range P {
		if !l.Lt(dp.X, dp.Y) {
			panic(fmt.Sprintf("bounds: degree pair (%d,%d) not increasing", dp.X, dp.Y))
		}
		p.Add(lp.LE, dp.LogBound, term(dp.Y, 1), term(dp.X, -1))
	}
	rows := addSubmodularity(p, l)
	var monoRows [][2]int
	for x := 0; x < n; x++ {
		for _, y := range l.UpperCovers(x) {
			monoRows = append(monoRows, [2]int{x, y})
			p.Add(lp.LE, zero, term(x, 1), term(y, -1))
		}
	}
	p.Add(lp.LE, zero, term(l.Bottom, 1))

	sol, err := lp.Solve(p)
	if err != nil {
		panic(fmt.Sprintf("bounds: CLLP solve failed: %v", err))
	}
	if sol.Status == lp.Unbounded {
		// No path of degree constraints reaches 1̂; the bound is infinite.
		return &CLLPResult{LogBound: nil, P: P, Lat: l}
	}
	res := &CLLPResult{
		LogBound: sol.Objective,
		H:        sol.X,
		C:        make([]*big.Rat, len(P)),
		S:        map[SubmodPair]*big.Rat{},
		M:        map[[2]int]*big.Rat{},
		P:        P,
		Lat:      l,
	}
	for i := range P {
		res.C[i] = sol.Y[i]
	}
	off := len(P)
	for i, r := range rows {
		if sol.Y[off+i].Sign() != 0 {
			res.S[r.SubmodPair] = sol.Y[off+i]
		}
	}
	off += len(rows)
	for i, mr := range monoRows {
		if sol.Y[off+i].Sign() != 0 {
			res.M[mr] = sol.Y[off+i]
		}
	}
	return res
}

// CLLPFromQuery builds the pair set P from the query: one cardinality pair
// (0̂, R_j⁺) per relation and one pair (X⁺, Y⁺) per declared degree bound,
// then solves the CLLP.
func CLLPFromQuery(q *query.Q) *CLLPResult {
	l := q.Lattice()
	var P []DegreePair
	logSizes := q.LogSizes()
	for j, r := range q.Rels {
		y := l.IndexOfClosure(r.VarSet())
		if y == l.Bottom {
			continue
		}
		P = append(P, DegreePair{X: l.Bottom, Y: y, LogBound: logSizes[j], Guard: j})
	}
	for _, d := range q.DegreeBounds {
		x := l.IndexOfClosure(d.X)
		y := l.IndexOfClosure(d.Y)
		if x == y {
			continue // Y ⊆ X⁺: degree bound is vacuous (degree ≤ 1)
		}
		P = append(P, DegreePair{X: x, Y: y, LogBound: query.LogRat(d.MaxDegree), Guard: d.Guard})
	}
	return CLLP(l, P)
}
