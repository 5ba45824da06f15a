package lp

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/exact"
)

// Vertices calls visit with each vertex of p's feasible region
// {x ≥ 0 : p.Cons} (p.Obj is ignored), once per vertex, until visit returns
// false. It returns nil once it has met every vertex or visit stopped it.
//
// The walk starts at the feasible basis phase 1 of Solve ends on and goes
// depth first: a step enters a non-basic column against one of its
// minimum-ratio rows, which keeps the basis feasible, and an inverse pivot
// undoes it exactly. Every step the simplex method can take is one of these,
// and from any feasible basis the simplex method minimizing the sum of the
// variables a vertex has at zero ends on that vertex, so the walk meets all
// of them. It costs pivots in proportion to the feasible bases it meets, not
// to the C(rows+vars, vars) square systems an exhaustive enumeration solves;
// it has no cap, and the feasible bases can be exponential in the rows.
func Vertices(p *Problem, visit func(x []*big.Rat) bool) error {
	t, err := phase1(p)
	if err != nil || t == nil {
		return err
	}
	stop := errors.New("stopped by visit")
	bases, seen := map[string]bool{t.basisKey(): true}, map[string]bool{}
	var walk func() error
	walk = func() error {
		x := make([]*big.Rat, p.NumVars)
		for j := range x {
			x[j] = new(big.Rat)
		}
		for i, bi := range t.basis {
			if bi < p.NumVars {
				t.row(i)[t.n].SetRat(x[bi])
			}
		}
		if k := fmt.Sprint(x); !seen[k] {
			seen[k] = true
			if !visit(x) {
				return stop
			}
		}
		for col := 0; col < t.artStart; col++ {
			if t.basic[col] {
				continue
			}
			for _, row := range t.ratioRows(col) {
				left := t.basis[row]
				t.pivot(row, col)
				if k := t.basisKey(); !bases[k] {
					bases[k] = true
					if err := walk(); err != nil {
						return err
					}
				}
				t.pivot(row, left)
			}
		}
		return nil
	}
	if err := walk(); err != stop {
		return err
	}
	return nil
}

// ratioRows returns every row that attains column col's minimum ratio
// rhs/a over its positive entries: the rows a feasible pivot on col may
// leave from. It is empty when col is a ray of the region.
func (t *tableau) ratioRows(col int) []int {
	var rows []int
	var best exact.Num
	for i := 0; i < t.m; i++ {
		row := t.row(i)
		if row[col].Sign() <= 0 {
			continue
		}
		ratio := row[t.n].Quo(row[col])
		if len(rows) > 0 {
			c := ratio.Cmp(best)
			if c > 0 {
				continue
			}
			if c < 0 {
				rows = rows[:0]
			}
		}
		rows, best = append(rows, i), ratio
	}
	return rows
}

// basisKey is the set of basic columns as a map key.
func (t *tableau) basisKey() string {
	b := make([]byte, (t.n+7)/8)
	for _, c := range t.basis {
		b[c/8] |= 1 << (c % 8)
	}
	return string(b)
}
