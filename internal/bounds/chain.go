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
	l := q.Lattice()
	inputs := q.InputElems()
	candidates := []lattice.Chain{
		l.GoodChainJoinIrreducibles(inputs),
		l.GoodChainMeetIrreducibles(inputs),
	}
	if l.Size() <= maxEnum {
		candidates = append(candidates, l.MaximalChains()...)
	}
	var best *ChainResult
	for _, c := range candidates {
		if !l.IsChain(c) || !l.GoodForAll(c, inputs) {
			continue
		}
		r := ChainBound(q, c)
		if !r.Finite {
			continue
		}
		if best == nil || r.LogBound.Cmp(best.LogBound) < 0 {
			best = r
		}
	}
	if best == nil {
		best = &ChainResult{Finite: false}
	}
	return best
}
