package bounds

import (
	"math"
	"math/big"

	"repro/internal/hypergraph"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/varset"
)

// ChainResult is the chain bound (Theorem 5.3) for a specific good chain.
type ChainResult struct {
	Chain    lattice.Chain
	LogBound *big.Rat
	Weights  []*big.Rat // fractional edge cover of the chain hypergraph
	Finite   bool       // false when the chain hypergraph has an isolated vertex
	Good     bool       // whether the chain is good for all inputs
}

// Bound returns 2^LogBound (+Inf when not finite).
func (r *ChainResult) Bound() float64 {
	if !r.Finite {
		return math.Inf(1)
	}
	f, _ := r.LogBound.Float64()
	return math.Exp2(f)
}

// ChainHypergraph builds H_C (Definition 5.1) for the chain: nodes are the
// chain steps 1..k, and relation R_j's edge is the set of steps it covers.
func ChainHypergraph(l *lattice.Lattice, c lattice.Chain, inputs []int, names []string) *hypergraph.H {
	h := hypergraph.New(len(c) - 1)
	for j, r := range inputs {
		var e varset.Set
		for _, step := range l.ChainEdge(c, r) {
			e = e.Add(step)
		}
		name := ""
		if j < len(names) {
			name = names[j]
		}
		h.AddEdge(name, e)
	}
	return h
}

// ChainBound computes the chain bound for the given chain: the weighted
// fractional edge cover of the chain hypergraph. Callers normally pass a
// good chain; Good records the goodness check either way.
func ChainBound(q *query.Q, c lattice.Chain) *ChainResult {
	l := q.Lattice()
	inputs := q.InputElems()
	names := make([]string, len(q.Rels))
	for j, r := range q.Rels {
		names[j] = r.Name
	}
	h := ChainHypergraph(l, c, inputs, names)
	res := &ChainResult{Chain: c, Good: l.GoodForAll(c, inputs)}
	cover := h.FractionalEdgeCover(q.LogSizes())
	if !cover.Finite {
		return res
	}
	res.Finite = true
	res.LogBound = cover.Value
	res.Weights = cover.Weights
	return res
}

// BestChainBound searches for the good chain with the smallest chain bound:
// it always tries the Corollary 5.9 and 5.11 constructions, and additionally
// enumerates all maximal chains when the lattice is small (≤ maxEnum
// elements). It returns the best finite result, or an infinite one if no
// candidate chain is finite. It solves afresh on every call; chainalg.Best
// is the memoized one the planner and the chain executor share.
func BestChainBound(q *query.Q, maxEnum int) *ChainResult {
	return BestChainBoundWithFloor(q, maxEnum, nil)
}

// BestChainBoundWithFloor is BestChainBound cut short at a floor no chain
// bound goes below — the LLP optimum, since every good chain bound proves an
// inequality that every lattice polymatroid satisfies (Thm 5.3): the search
// stops at the first candidate whose bound equals the floor. A later
// candidate replaces the best only when strictly smaller, so that candidate
// is the one the full search returns. floor is called only when the lattice
// is small enough to enumerate (≤ maxEnum elements), the one case with a
// search long enough to cut; a nil floor searches in full.
func BestChainBoundWithFloor(q *query.Q, maxEnum int, floor func() *big.Rat) *ChainResult {
	l := q.Lattice()
	inputs := q.InputElems()
	enumerate := l.Size() <= maxEnum
	var lo *big.Rat
	if enumerate && floor != nil {
		lo = floor()
	}
	var best *ChainResult
	// offer weighs one candidate and reports whether the search goes on.
	offer := func(c lattice.Chain) bool {
		if !l.IsChain(c) || !l.GoodForAll(c, inputs) {
			return true
		}
		r := ChainBound(q, c)
		if !r.Finite {
			return true
		}
		if best == nil || r.LogBound.Cmp(best.LogBound) < 0 {
			best = r
		}
		return lo == nil || best.LogBound.Cmp(lo) != 0
	}
	if offer(l.GoodChainJoinIrreducibles(inputs)) && offer(l.GoodChainMeetIrreducibles(inputs)) && enumerate {
		l.EachMaximalChain(offer)
	}
	if best == nil {
		best = &ChainResult{Finite: false}
	}
	return best
}
