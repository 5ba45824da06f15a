package bounds

import "repro/internal/query"

// AllPairsLLP solves the LLP with every sub-modularity row from the start:
// the one solve that row generation replaced, and its reference.
func AllPairsLLP(q *query.Q) *LLPResult {
	return allPairsLLP(q.Lattice(), q.InputElems(), q.LogSizes())
}
