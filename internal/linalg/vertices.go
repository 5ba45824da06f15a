package linalg

import (
	"math/big"

	"repro/internal/exact"
)

// Polytope represents {x ∈ R^n : A·x ≥ b, x ≥ 0} — the natural shape of a
// fractional edge cover polytope.
type Polytope struct {
	A *Matrix    // m×n constraint matrix
	B []*big.Rat // length m
}

// Vertices enumerates the vertices of the polytope by considering every
// choice of n tight constraints (from the m inequality rows and the n
// non-negativity rows), solving the resulting square system, and keeping
// feasible solutions. Duplicate vertices are removed.
//
// The procedure is exponential in n and intended only for the small covers
// polytopes of the paper's lattices (n = number of hyperedges ≤ ~8).
func (p *Polytope) Vertices() [][]*big.Rat {
	n := p.A.Cols
	m := p.A.Rows
	total := m + n // candidate tight rows: m constraints plus n axes
	var verts [][]*big.Rat
	seen := map[string]bool{}

	// The polytope once in the elimination's number type, constraint row i
	// as the n+1 entries (A_i | b_i) of an augmented system.
	s := &vertexSystems{m: m, n: n, rows: make([]exact.Num, m*(n+1)), aug: make([]exact.Num, n*(n+1))}
	for i := 0; i < m; i++ {
		row := s.rows[i*(n+1) : (i+1)*(n+1)]
		for j := 0; j < n; j++ {
			row[j] = exact.FromRat(p.A.At(i, j))
		}
		row[n] = exact.FromRat(p.B[i])
	}

	idx := make([]int, n)
	var rec func(start, k int)
	rec = func(start, k int) {
		if k == n {
			v := s.try(idx)
			if v == nil {
				return
			}
			key := vecKey(v)
			if !seen[key] {
				seen[key] = true
				verts = append(verts, v)
			}
			return
		}
		for i := start; i < total; i++ {
			idx[k] = i
			rec(i+1, k+1)
		}
	}
	rec(0, 0)
	return verts
}

// vertexSystems solves the square systems of one Vertices call.
type vertexSystems struct {
	m, n int
	rows []exact.Num // m×(n+1): the constraint rows (A | b)
	aug  []exact.Num // n×(n+1): the system being solved, reused
}

// try solves the system defined by the chosen tight rows and returns the
// solution if it is a feasible point of the polytope, else nil.
func (s *vertexSystems) try(tight []int) []*big.Rat {
	n, w := s.n, s.n+1
	for k, r := range tight {
		row := s.aug[k*w : (k+1)*w]
		if r < s.m {
			copy(row, s.rows[r*w:(r+1)*w])
		} else {
			// axis constraint x_{r-m} = 0
			clear(row)
			row[r-s.m] = exact.Int(1)
		}
	}
	if eliminate(s.aug, n) >= 0 {
		return nil
	}
	// Feasibility: x ≥ 0 and A·x ≥ b.
	for k := 0; k < n; k++ {
		if s.aug[k*w+n].Sign() < 0 {
			return nil
		}
	}
	for i := 0; i < s.m; i++ {
		row := s.rows[i*w : (i+1)*w]
		var sum exact.Num
		for j := 0; j < n; j++ {
			sum = sum.Add(row[j].Mul(s.aug[j*w+n]))
		}
		if sum.Cmp(row[n]) < 0 {
			return nil
		}
	}
	x := make([]*big.Rat, n)
	for k := range x {
		x[k] = s.aug[k*w+n].Rat()
	}
	return x
}

func vecKey(v []*big.Rat) string {
	s := ""
	for _, x := range v {
		s += x.RatString() + "|"
	}
	return s
}
