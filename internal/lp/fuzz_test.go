package lp

import (
	"math/big"
	"testing"

	"repro/internal/query"
)

// fuzzPalette is what a fuzz input byte can stand for: the value classes of
// the repository's LPs, small and wide, both signs.
var fuzzPalette = []*big.Rat{
	ri(0), ri(1), ri(-1), ri(2), ri(-2), ri(3), rat(1, 2), rat(-1, 2),
	rat(2, 3), rat(5, 7), query.LogRat(3), query.LogRat(5), query.LogRat(48),
	new(big.Rat).Neg(query.LogRat(3)), query.LogRat(1000), ri(7),
}

// problemFromBytes decodes a fuzz input: byte 0 picks the variable count
// (1–6), byte 1 the direction, the next n bytes the objective, and every
// following group of 2+n bytes one row (relation, right-hand side,
// coefficients), at most 10 rows. Missing bytes read as zero, so every
// input is a problem.
func problemFromBytes(data []byte) *Problem {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	val := func() *big.Rat { return fuzzPalette[int(next())%len(fuzzPalette)] }
	n := 1 + int(next())%6
	p := NewProblem(n, next()%2 == 1)
	for j := 0; j < n; j++ {
		if v := val(); v.Sign() != 0 {
			p.SetObj(j, v)
		}
	}
	for row := 0; row < 10 && len(data) > 0; row++ {
		rel := Rel(next() % 3)
		rhs := val()
		var terms []Term
		for j := 0; j < n; j++ {
			if v := val(); v.Sign() != 0 {
				terms = append(terms, TR(j, v))
			}
		}
		p.Add(rel, rhs, terms...)
	}
	return p
}

// FuzzSolveDiff requires the kernel and the retained big.Rat reference to
// agree exactly on whatever problem the input decodes to. The seed corpus
// in testdata/fuzz/FuzzSolveDiff covers each outcome and both number
// representations.
func FuzzSolveDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := problemFromBytes(data)
		if d := diffSolve(p); d != "" {
			t.Fatalf("%s\n%v", d, p)
		}
	})
}

// FuzzVerticesDiff requires the vertex walk to meet exactly the vertices the
// exhaustive enumeration finds on whatever region the input decodes to, when
// that enumeration has at most 5000 square systems to solve.
func FuzzVerticesDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 1, 1, 3, 1, 0, 2, 1, 1})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0, 1, 1, 0, 1, 1, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffVertices(t, problemFromBytes(data), 5000)
	})
}
