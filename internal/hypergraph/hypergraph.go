// Package hypergraph provides hypergraphs and the two linear programs at the
// heart of the AGM bound (Sec. 2 of the paper): the weighted fractional edge
// cover LP and its dual, the weighted fractional vertex packing LP.
package hypergraph

import (
	"math/big"

	"repro/internal/lp"
	"repro/internal/varset"
)

// H is a hypergraph over nodes 0..N-1 with named hyperedges.
type H struct {
	N     int
	Edges []varset.Set
	Names []string // optional edge names, parallel to Edges
}

// New creates a hypergraph with n nodes.
func New(n int) *H { return &H{N: n} }

// AddEdge appends a hyperedge and returns its index.
func (h *H) AddEdge(name string, nodes varset.Set) int {
	h.Edges = append(h.Edges, nodes)
	h.Names = append(h.Names, name)
	return len(h.Edges) - 1
}

// HasIsolatedVertex reports whether some node is in no edge. Such a node
// makes the fractional edge cover number infinite.
func (h *H) HasIsolatedVertex() bool {
	covered := varset.Empty
	for _, e := range h.Edges {
		covered = covered.Union(e)
	}
	return !covered.ContainsAll(varset.Universe(h.N))
}

// CoverResult is the outcome of a fractional edge cover computation.
type CoverResult struct {
	Value   *big.Rat   // Σ_j w_j·n_j, i.e. log2 of the size bound
	Weights []*big.Rat // one per edge
	Finite  bool       // false when an isolated vertex exists
}

// FractionalEdgeCover solves min Σ_j w_j·logSize_j subject to every node
// being covered: Σ_{j: i ∈ e_j} w_j ≥ 1. With all logSize_j = 1 the optimum
// is the fractional edge cover number ρ*.
func (h *H) FractionalEdgeCover(logSizes []*big.Rat) *CoverResult {
	if h.HasIsolatedVertex() {
		return &CoverResult{Finite: false}
	}
	sol, err := lp.Solve(h.CoverLP(logSizes))
	if err != nil || sol.Status != lp.Optimal {
		panic("hypergraph: edge cover LP must be solvable")
	}
	return &CoverResult{Value: sol.Objective, Weights: sol.X, Finite: true}
}

// CoverLP returns the weighted fractional edge cover LP: minimize
// Σ_j w_j·logSize_j over the cover polytope {w ≥ 0 : Σ_{j: i ∈ e_j} w_j ≥ 1
// for every node i}, whose vertices the normality test (Theorem 4.9) walks
// with lp.Vertices.
func (h *H) CoverLP(logSizes []*big.Rat) *lp.Problem {
	m := len(h.Edges)
	p := lp.NewProblem(m, false)
	for j := 0; j < m; j++ {
		p.SetObj(j, logSizes[j])
	}
	one := big.NewRat(1, 1)
	for i := 0; i < h.N; i++ {
		var terms []lp.Term
		for j, e := range h.Edges {
			if e.Contains(i) {
				terms = append(terms, lp.T(j, 1))
			}
		}
		p.Add(lp.GE, one, terms...)
	}
	return p
}

// PackingResult is the outcome of a fractional vertex packing computation.
type PackingResult struct {
	Value  *big.Rat
	Values []*big.Rat // one per node
}

// FractionalVertexPacking solves max Σ_i v_i subject to
// Σ_{i ∈ e_j} v_i ≤ logSize_j. By LP duality its optimum equals the
// fractional edge cover optimum (Theorem 2.1).
func (h *H) FractionalVertexPacking(logSizes []*big.Rat) *PackingResult {
	p := lp.NewProblem(h.N, true)
	one := big.NewRat(1, 1)
	for i := 0; i < h.N; i++ {
		p.SetObj(i, one)
	}
	for j, e := range h.Edges {
		var terms []lp.Term
		for _, i := range e.Members() {
			terms = append(terms, lp.T(i, 1))
		}
		if len(terms) == 0 {
			continue
		}
		p.Add(lp.LE, logSizes[j], terms...)
	}
	sol, err := lp.Solve(p)
	if err != nil || sol.Status != lp.Optimal {
		// Unbounded when a node is isolated.
		return nil
	}
	return &PackingResult{Value: sol.Objective, Values: sol.X}
}
