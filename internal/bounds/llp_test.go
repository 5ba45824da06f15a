package bounds

import (
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/varset"
)

// allPairsLLP is the LLP as one solve with every sub-modularity row: the
// reference row generation is checked against.
func allPairsLLP(l *lattice.Lattice, inputs []int, logSizes []*big.Rat) *LLPResult {
	p := lp.NewProblem(l.Size(), true)
	p.SetObj(l.Top, big.NewRat(1, 1))
	rows := addSubmodularity(p, l)
	for j, r := range inputs {
		p.Add(lp.LE, logSizes[j], lp.T(r, 1))
	}
	p.Add(lp.LE, new(big.Rat), lp.T(l.Bottom, 1))
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		panic(fmt.Sprintf("bounds: all-pairs LLP: %v, %v", sol, err))
	}
	res := &LLPResult{
		LogBound: sol.Objective,
		H:        sol.X,
		W:        sol.Y[len(rows) : len(rows)+len(inputs)],
		S:        map[SubmodPair]*big.Rat{},
		Lat:      l,
		Inputs:   inputs,
	}
	for i, r := range rows {
		res.Pairs = append(res.Pairs, r.SubmodPair)
		if sol.Y[i].Sign() != 0 {
			res.S[r.SubmodPair] = sol.Y[i]
		}
	}
	return res
}

// FuzzLLPRowGeneration decodes the input into an FD lattice and LLP inputs
// and requires row generation to reach the all-pairs optimum. Byte 0 picks
// k ≤ 5 variables and byte 1 the number of dependencies, given as (from, to)
// byte pairs as in FuzzLatticeDefinitions; every following triple is one
// input (element, then its log size as numerator and denominator). Inputs
// for the closures of uncovered variables complete the join to 1̂.
// testdata/fuzz/FuzzLLPRowGeneration holds the seed corpus: a lattice that
// needs a second round, and one whose local relaxation is unbounded.
func FuzzLLPRowGeneration(f *testing.F) {
	f.Add([]byte{3, 0, 1, 4, 1, 2, 4, 1, 4, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, nFD := int(data[0])%6, int(data[1])
		data = data[2:]
		s := fd.NewSet(k)
		for ; k > 0 && nFD > 0 && len(data) >= 2; nFD, data = nFD-1, data[2:] {
			from := varset.Set(data[0]) & varset.Universe(k)
			to := varset.Single(int(data[1]) % k)
			if !from.ContainsAll(to) {
				s.Add(from, to, -1, nil)
			}
		}
		l := lattice.New(k, s.Closure)
		var inputs []int
		var logSizes []*big.Rat
		covered := varset.Empty
		for ; len(data) >= 3; data = data[3:] {
			e := int(data[0]) % l.Size()
			inputs = append(inputs, e)
			logSizes = append(logSizes, big.NewRat(int64(data[1]), int64(data[2])%16+1))
			covered = covered.Union(l.Elems[e])
		}
		for v := range k {
			if !covered.Contains(v) {
				e := l.IndexOfClosure(varset.Single(v))
				inputs = append(inputs, e)
				logSizes = append(logSizes, big.NewRat(int64(v+1), 1))
				covered = covered.Union(l.Elems[e])
			}
		}
		got, want := llp(l, inputs, logSizes), allPairsLLP(l, inputs, logSizes)
		if got.LogBound.Cmp(want.LogBound) != 0 {
			t.Fatalf("row generation: h*(1̂) = %v, all pairs: %v", got.LogBound, want.LogBound)
		}
		if !slices.Equal(got.Pairs, want.Pairs) {
			t.Fatalf("row generation listed pairs %v, all pairs %v", got.Pairs, want.Pairs)
		}
		obj := new(big.Rat)
		for j, w := range got.W {
			obj.Add(obj, new(big.Rat).Mul(w, logSizes[j]))
		}
		if obj.Cmp(got.LogBound) != 0 {
			t.Fatalf("Σ w_j·n_j = %v, h*(1̂) = %v", obj, got.LogBound)
		}
		if !OutputInequalityHolds(l, inputs, got.W) {
			t.Fatalf("weights %v prove no output inequality", got.W)
		}
	})
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
	return !slices.ContainsFunc(submodRows(l), func(r submodRow) bool { return r.violated(h) })
}
