package linalg

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// refSolveSquare is the big.Rat Gaussian elimination SolveSquare ran before
// it moved onto exact.Num, kept as the reference it is diffed against.
func refSolveSquare(A *Matrix, b []*big.Rat) ([]*big.Rat, error) {
	n := A.Rows
	if A.Cols != n || len(b) != n {
		return nil, fmt.Errorf("linalg: SolveSquare shape mismatch %dx%d, b %d", A.Rows, A.Cols, len(b))
	}
	// Work on an augmented copy.
	m := NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.a[i][j].Set(A.a[i][j])
		}
		m.a[i][n].Set(b[i])
	}
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if !Zero(m.a[r][col]) {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("linalg: singular matrix at column %d", col)
		}
		m.swapRows(col, pivot)
		inv := new(big.Rat).Inv(m.a[col][col])
		for j := col; j <= n; j++ {
			m.a[col][j].Mul(m.a[col][j], inv)
		}
		for r := 0; r < n; r++ {
			if r == col || Zero(m.a[r][col]) {
				continue
			}
			factor := new(big.Rat).Set(m.a[r][col])
			for j := col; j <= n; j++ {
				t := new(big.Rat).Mul(factor, m.a[col][j])
				m.a[r][j].Sub(m.a[r][j], t)
			}
		}
	}
	x := make([]*big.Rat, n)
	for i := 0; i < n; i++ {
		x[i] = new(big.Rat).Set(m.a[i][n])
	}
	return x, nil
}

// Random systems over the values the cover polytopes and LPs mix — mostly
// {−1, 0, 1}, small fractions, wide dyadic log sizes — must give the same
// solution, or the same singularity error, as the big.Rat elimination.
func TestSolveSquareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	entry := func() *big.Rat {
		switch k := rng.Intn(12); {
		case k < 7:
			return Int(int64(rng.Intn(3) - 1))
		case k < 9:
			return Int(int64(rng.Intn(15) - 7))
		case k < 11:
			return Rat(int64(rng.Intn(11)-5), int64(1+rng.Intn(7)))
		default:
			return new(big.Rat).SetFloat64(math.Log2(float64(3 + rng.Intn(5000))))
		}
	}
	solved, singular := 0, 0
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(6)
		A := NewMatrix(n, n)
		b := make([]*big.Rat, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				A.Set(i, j, entry())
			}
			b[i] = entry()
		}
		got, gerr := SolveSquare(A, b)
		want, werr := refSolveSquare(A, b)
		if gerr != nil || werr != nil {
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("trial %d: error %v, reference %v\n%v", trial, gerr, werr, A)
			}
			singular++
			continue
		}
		solved++
		for i := range want {
			if got[i].RatString() != want[i].RatString() {
				t.Fatalf("trial %d: x[%d] = %s, reference %s\n%v", trial, i, got[i].RatString(), want[i].RatString(), A)
			}
		}
	}
	if solved < 500 || singular < 50 {
		t.Fatalf("%d solved, %d singular: the generator no longer covers both", solved, singular)
	}
}
