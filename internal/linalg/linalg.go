// Package linalg provides exact rational linear algebra used by the LP layer
// and the polytope vertex enumeration in the normality test: dense matrices
// of math/big.Rat, and Gaussian elimination and linear-system solving that
// take and return big.Rat but compute on exact.Num, the LP kernel's number.
package linalg

import (
	"fmt"
	"math/big"

	"repro/internal/exact"
)

// Rat returns a new big.Rat with value a/b. It panics if b == 0.
func Rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

// Int returns a new big.Rat with integer value v.
func Int(v int64) *big.Rat { return new(big.Rat).SetInt64(v) }

// Zero reports whether r is exactly zero.
func Zero(r *big.Rat) bool { return r.Sign() == 0 }

// Matrix is a dense rows×cols matrix of rationals. Entries are always
// non-nil once the matrix is created with NewMatrix.
type Matrix struct {
	Rows, Cols int
	a          [][]*big.Rat
}

// NewMatrix creates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	m := &Matrix{Rows: rows, Cols: cols, a: make([][]*big.Rat, rows)}
	for i := range m.a {
		m.a[i] = make([]*big.Rat, cols)
		for j := range m.a[i] {
			m.a[i][j] = new(big.Rat)
		}
	}
	return m
}

// At returns the entry at (i, j). The returned value is aliased; use Set to
// modify entries.
func (m *Matrix) At(i, j int) *big.Rat { return m.a[i][j] }

// Set stores a copy of v at (i, j).
func (m *Matrix) Set(i, j int, v *big.Rat) { m.a[i][j].Set(v) }

// SetInt stores the integer v at (i, j).
func (m *Matrix) SetInt(i, j int, v int64) { m.a[i][j].SetInt64(v) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			c.a[i][j].Set(m.a[i][j])
		}
	}
	return c
}

func (m *Matrix) String() string {
	s := ""
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				s += " "
			}
			s += m.a[i][j].RatString()
		}
		s += "\n"
	}
	return s
}

// swapRows exchanges rows i and j in place.
func (m *Matrix) swapRows(i, j int) { m.a[i], m.a[j] = m.a[j], m.a[i] }

// SolveSquare solves A·x = b for a square system using Gaussian elimination
// with partial (first-nonzero) pivoting over exact rationals. It returns an
// error if A is singular.
func SolveSquare(A *Matrix, b []*big.Rat) ([]*big.Rat, error) {
	n := A.Rows
	if A.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveSquare shape mismatch %dx%d, b %d", A.Rows, A.Cols, len(b))
	}
	// Work on an augmented copy, in the number type the LP kernel uses.
	aug := make([]exact.Num, n*(n+1))
	for i := 0; i < n; i++ {
		row := aug[i*(n+1) : (i+1)*(n+1)]
		for j := 0; j < n; j++ {
			row[j] = exact.FromRat(A.a[i][j])
		}
		row[n] = exact.FromRat(b[i])
	}
	if col := eliminate(aug, n); col >= 0 {
		return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
	}
	x := make([]*big.Rat, n)
	for i := range x {
		x[i] = aug[i*(n+1)+n].Rat()
	}
	return x, nil
}

// eliminate runs Gauss-Jordan elimination in place on the n×(n+1) augmented
// row-major system aug, leaving the identity in the first n columns and the
// solution in the last. It returns -1, or the first column with no pivot
// when the matrix is singular.
func eliminate(aug []exact.Num, n int) int {
	w := n + 1
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !aug[r*w+col].IsZero() {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return col
		}
		pr := aug[col*w : (col+1)*w]
		if pivot != col {
			sr := aug[pivot*w : (pivot+1)*w]
			for j := range pr {
				pr[j], sr[j] = sr[j], pr[j]
			}
		}
		inv := pr[col].Inv()
		for j := col; j <= n; j++ {
			pr[j] = pr[j].Mul(inv)
		}
		for r := 0; r < n; r++ {
			factor := aug[r*w+col]
			if r == col || factor.IsZero() {
				continue
			}
			row := aug[r*w : (r+1)*w]
			for j := col; j <= n; j++ {
				row[j] = row[j].SubMul(factor, pr[j])
			}
		}
	}
	return -1
}

// Rank returns the rank of A using Gaussian elimination on a copy.
func Rank(A *Matrix) int {
	m := A.Clone()
	rank := 0
	for col := 0; col < m.Cols && rank < m.Rows; col++ {
		pivot := -1
		for r := rank; r < m.Rows; r++ {
			if !Zero(m.a[r][col]) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(rank, pivot)
		inv := new(big.Rat).Inv(m.a[rank][col])
		for j := col; j < m.Cols; j++ {
			m.a[rank][j].Mul(m.a[rank][j], inv)
		}
		for r := 0; r < m.Rows; r++ {
			if r == rank || Zero(m.a[r][col]) {
				continue
			}
			factor := new(big.Rat).Set(m.a[r][col])
			for j := col; j < m.Cols; j++ {
				t := new(big.Rat).Mul(factor, m.a[rank][j])
				m.a[r][j].Sub(m.a[r][j], t)
			}
		}
		rank++
	}
	return rank
}

// Dot returns the inner product of two equal-length rational vectors.
func Dot(a, b []*big.Rat) *big.Rat {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	sum := new(big.Rat)
	t := new(big.Rat)
	for i := range a {
		t.Mul(a[i], b[i])
		sum.Add(sum, t)
	}
	return sum
}

// ZeroVec returns a vector of n fresh zero rationals.
func ZeroVec(n int) []*big.Rat {
	out := make([]*big.Rat, n)
	for i := range out {
		out[i] = new(big.Rat)
	}
	return out
}
