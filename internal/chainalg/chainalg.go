// Package chainalg implements the Chain Algorithm (Algorithm 1, Sec. 5.1):
// a worst-case optimal join for queries with FDs that climbs a good chain
// 0̂ = C_0 ≺ C_1 ≺ ... ≺ C_k = 1̂ of the FD lattice, computing intermediate
// relations Q_i over the variables of C_i by per-tuple minimum-cost
// conditional search, exactly as in the paper's proof of Theorem 5.7.
//
// RunInto and RunBestInto are safe to call concurrently on frozen inputs.
// R_j⁺ and every step's Π_{R_j∧C_i}(R_j⁺) with its two indexes come from the
// instance's prepared record (expand.Inputs), built once and shared
// read-only; the Q_i and probe buffers are per-run; the chain memo is in the
// query's plan cache.
//
// Both are sink-based (see rel.Sink): the chain's intermediate relations
// must materialize (step i+1 enumerates per-tuple over step i), so
// streaming buffers until the last step and then flushes the sorted result,
// stopping when the sink does; ctx is checked at chain-step and
// candidate-batch boundaries.
package chainalg

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/expand"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// cancelCheckInterval is how many candidate tuples pass between context
// checks inside a chain step's enumeration loop.
const cancelCheckInterval = 1024

// Value aliases the relational value type.
type Value = rel.Value

// Stats reports the work performed, making the Õ(Σ_i Π_j n_ij^{w_j})
// behaviour observable.
type Stats struct {
	Chain         lattice.Chain
	TuplesVisited int   // candidate tuples enumerated from the min relation
	Probes        int   // index probes for verification
	Intermediate  []int // |Q_i| per chain step
}

// RunInto evaluates the query along the given chain, which must be good for
// all inputs and have no isolated step (use bounds.BestChainBound to select
// one), emitting into sink: the final chain relation Q_k is sorted and
// streamed, stopping early when the sink does, and ctx cancellation is
// observed between chain steps and every few hundred candidate tuples
// within one.
func RunInto(ctx context.Context, q *query.Q, c lattice.Chain, sink rel.Sink) (*Stats, error) {
	l := q.Lattice()
	inputs := q.InputElems()
	if !l.IsChain(c) {
		return nil, fmt.Errorf("chainalg: not a chain")
	}
	if !l.GoodForAll(c, inputs) {
		return nil, fmt.Errorf("chainalg: chain is not good for the inputs")
	}
	st := &Stats{Chain: c}
	e := expand.New(q)

	// Line 1: every input expanded to its closure (built by the first run).
	expanded := make([]*rel.Relation, len(q.Rels))
	for j := range q.Rels {
		var err error
		if expanded[j], err = e.Closed(ctx, j); err != nil {
			return st, err
		}
	}

	// Q_0 = {()}.
	prev := rel.New("Q0")
	prev.Add()

	vals := make([]Value, q.K)
	for i := 1; i < len(c); i++ {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		ciVars := l.Elems[c[i]]
		prevVars := l.Elems[c[i-1]]

		// Relations covering step i, with their projections Π_{R_j∧C_i}(R_j)
		// indexed so that the C_{i-1}-shared attributes form the prefix.
		type covering struct {
			ix          *rel.Index
			sharedVars  []int // vars(R_j ∧ C_{i-1}): the join attributes
			projVars    varset.Set
			projMembers []int      // projVars.Members(), precomputed
			memberIx    *rel.Index // full-row membership index
			prefixBuf   []Value    // reusable Range prefix, len = |sharedVars|
			probeBuf    []Value    // reusable membership probe, len = |projVars|
		}
		var covs []*covering
		for j, r := range inputs {
			if !l.CoversStep(c, r, i) {
				continue
			}
			projSet := l.Elems[l.Meet(r, c[i])]
			sharedSet := l.Elems[l.Meet(r, c[i-1])]
			proj := e.Project(expanded[j], projSet)
			prio := append(append([]int{}, sharedSet.Members()...), projSet.Diff(sharedSet).Members()...)
			covs = append(covs, &covering{
				ix:          proj.IndexOn(prio...),
				sharedVars:  sharedSet.Members(),
				projVars:    projSet,
				projMembers: projSet.Members(),
				memberIx:    proj.IndexOn(projSet.Members()...),
				prefixBuf:   make([]Value, sharedSet.Len()),
				probeBuf:    make([]Value, projSet.Len()),
			})
		}
		if len(covs) == 0 {
			return st, fmt.Errorf("chainalg: step %d is an isolated vertex", i)
		}

		ciMembers := ciVars.Members()
		out := rel.New(fmt.Sprintf("Q%d", i), ciMembers...)
		nt := make(rel.Tuple, len(ciMembers))
		for ti := 0; ti < prev.Len(); ti++ {
			if ti%cancelCheckInterval == cancelCheckInterval-1 {
				if err := ctx.Err(); err != nil {
					return st, err
				}
			}
			t := prev.Row(ti)
			for k, v := range prev.Attrs {
				vals[v] = t[k]
			}
			// Choose j* = argmin |t ⋈ Π_{R_j∧C_i}(R_j)|.
			var best *covering
			bestLo, bestHi := 0, 0
			for _, cv := range covs {
				for k, v := range cv.sharedVars {
					cv.prefixBuf[k] = vals[v]
				}
				lo, hi := cv.ix.Range(cv.prefixBuf...)
				st.Probes++
				if best == nil || hi-lo < bestHi-bestLo {
					best, bestLo, bestHi = cv, lo, hi
				}
			}
			// Enumerate candidates from the cheapest relation, expand each
			// to C_i, and verify against the other covering relations.
			for pos := bestLo; pos < bestHi; pos++ {
				st.TuplesVisited++
				// best.ix.Row returns the row in index priority order;
				// Attr(k) maps position k back to its variable id.
				row := best.ix.Row(pos)
				for k := range row {
					vals[best.ix.Attr(k)] = row[k]
				}
				have := prevVars.Union(best.projVars)
				_, ok := e.ExpandTuple(vals, have, ciVars)
				if !ok {
					continue
				}
				okAll := true
				for _, cv := range covs {
					if cv == best {
						continue
					}
					for k, v := range cv.projMembers {
						cv.probeBuf[k] = vals[v]
					}
					st.Probes++
					if !cv.memberIx.Contains(cv.probeBuf...) {
						okAll = false
						break
					}
				}
				if !okAll {
					continue
				}
				for k, v := range ciMembers {
					nt[k] = vals[v]
				}
				out.AddTuple(nt)
			}
		}
		out.SortDedup()
		st.Intermediate = append(st.Intermediate, out.Len())
		prev = out
	}
	rel.Stream(prev, sink)
	return st, nil
}

// RunBestInto selects the best good chain via bounds.BestChainBound and
// runs the algorithm on it.
func RunBestInto(ctx context.Context, q *query.Q, sink rel.Sink) (*Stats, error) {
	cb := bounds.BestChainBound(q, 64)
	if !cb.Finite {
		return nil, fmt.Errorf("chainalg: no good chain with a finite bound")
	}
	return RunInto(ctx, q, cb.Chain, sink)
}
