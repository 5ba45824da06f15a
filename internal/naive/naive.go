// Package naive is the ground-truth query evaluator used as a differential
// testing oracle: it joins all input relations pairwise, expands each result
// tuple to the full variable set via the FDs, and filters FD-inconsistent
// tuples. Its cost can be as bad as the product of the input sizes; it is
// only for correctness checking on small instances.
package naive

import (
	"repro/internal/expand"
	"repro/internal/query"
	"repro/internal/rel"
)

// Evaluate computes the exact query answer Q^D over all variables.
func Evaluate(q *query.Q) *rel.Relation {
	e := expand.New(q)
	// Fold a join over all inputs.
	var acc *rel.Relation
	for _, r := range q.Rels {
		if acc == nil {
			acc = r.Clone()
			continue
		}
		acc = rel.Join(acc, r)
	}
	if acc == nil {
		acc = rel.New("empty")
	}
	target := q.AllVars()
	targetVars := target.Members()
	out := rel.New("Q", targetVars...)
	vals := make([]expand.Value, q.K)
	nt := make(rel.Tuple, q.K)
	have := acc.VarSet()
	for i := 0; i < acc.Len(); i++ {
		t := acc.Row(i)
		for c, v := range acc.Attrs {
			vals[v] = t[c]
		}
		_, ok := e.ExpandTuple(vals, have, target)
		if !ok {
			continue
		}
		for c, v := range targetVars {
			nt[c] = vals[v]
		}
		out.AddTuple(nt)
	}
	out.SortDedup()
	return out
}
