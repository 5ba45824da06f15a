package bounds

import (
	"math/big"

	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/query"
)

// CMI computes the Möbius inverse g of h on the lattice:
// g(X) = Σ_{Y ≥ X} µ(X, Y)·h(Y), so that h(X) = Σ_{Y ≥ X} g(Y) (Eq. 10).
// For entropic h on a Boolean algebra, −g(X) is the multivariate conditional
// mutual information I(1̂ − X | X).
func CMI(l *lattice.Lattice, h []*big.Rat) []*big.Rat {
	n := l.Size()
	g := make([]*big.Rat, n)
	t := new(big.Rat)
	for x := 0; x < n; x++ {
		g[x] = new(big.Rat)
		for y := 0; y < n; y++ {
			if !l.Leq(x, y) {
				continue
			}
			mu := l.Mobius(x, y)
			if mu == 0 {
				continue
			}
			t.Mul(new(big.Rat).SetInt64(mu), h[y])
			g[x].Add(g[x], t)
		}
	}
	return g
}

// NormalityResult is the outcome of the lattice normality decision
// procedure (Theorem 4.9, item 3).
type NormalityResult struct {
	Normal bool
	// Witness, when not normal: a fractional edge cover of the co-atomic
	// hypergraph whose output inequality fails on some submodular function.
	WitnessCover []*big.Rat
}

// IsNormalLattice decides whether the lattice is normal w.r.t. the query's
// inputs by the paper's procedure: walk the vertices of the fractional edge
// cover polytope of the co-atomic hypergraph (lp.Vertices) and check that
// each one's output inequality (7) holds over the submodular cone
// (Lemma 3.9 / Theorem 4.9 item 3). The walk is as long as the polytope has
// feasible bases, which can be exponential in the query; only analysis
// (engine.Analyze) asks.
func IsNormalLattice(q *query.Q) *NormalityResult {
	l := q.Lattice()
	inputs := q.InputElems()
	h, _ := CoatomicHypergraph(q)
	if h.HasIsolatedVertex() {
		// A co-atom covered by no edge means the cover polytope is empty;
		// vacuously every cover inequality holds, and the condition of
		// item 3 degenerates. Treat as normal w.r.t. these inputs.
		return &NormalityResult{Normal: true}
	}
	res := &NormalityResult{Normal: true}
	err := lp.Vertices(h.CoverLP(q.LogSizes()), func(w []*big.Rat) bool {
		if !OutputInequalityHolds(l, inputs, w) {
			res = &NormalityResult{Normal: false, WitnessCover: w}
		}
		return res.Normal
	})
	if err != nil {
		panic("bounds: cover polytope walk failed: " + err.Error())
	}
	return res
}
