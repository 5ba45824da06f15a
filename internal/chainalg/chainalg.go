// Package chainalg implements the Chain Algorithm (Algorithm 1, Sec. 5.1):
// a worst-case optimal join for queries with FDs that climbs a good chain
// 0̂ = C_0 ≺ C_1 ≺ ... ≺ C_k = 1̂ of the FD lattice, computing intermediate
// relations Q_i over the variables of C_i by per-tuple minimum-cost
// conditional search, exactly as in the paper's proof of Theorem 5.7.
//
// RunInto is the one entry point. It climbs the chain it is given, or, given
// none, the best good chain at q's sizes (Best, a slot of the shape's plan
// record). A chain's goodness depends on the lattice alone, not on the
// sizes, so a chain chosen for one instance climbs every instance of the
// shape: a split of it, say.
//
// RunInto is safe to call concurrently on frozen inputs. R_j⁺, every step's
// Π_{R_j∧C_i}(R_j⁺) with its index and two hashed lookups, and the steps'
// compiled expansions come from the instance's prepared record
// (expand.Inputs), built once and shared read-only; the Q_i are per-run. A
// step costs one O(1) hashed probe per covering relation per tuple of Q_{i-1}
// and one per other covering relation per candidate — the index lookups the
// proof of Theorem 5.7 charges — and each candidate fires only the FDs that
// neither t ∈ Q_{i-1} nor the candidate row has already satisfied on its own.
//
// No Q_i is sorted or deduplicated, because none can hold a duplicate and the
// next step only iterates it. By induction: Q_0 = {()}. A tuple of Q_i
// projects onto C_{i-1} to the t ∈ Q_{i-1} it was built from (the candidate
// row agrees with t on the shared variables, and expansion binds only unbound
// variables), so tuples built from different t differ; and the candidates of
// one t are distinct rows of one duplicate-free projection that agree on its
// shared-variable prefix, so they differ on a variable of
// (R_j∧C_i) \ C_{i-1} ⊆ C_i, and so do the tuples built from them.
// TestIntermediateStepsEmitNoDuplicates checks it on the whole catalog.
//
// It is sink-based (see rel.Sink): step i+1 enumerates per tuple of Q_i,
// so the run buffers until the last step; Q_k is then sorted once, for the
// Sink contract's order, and streamed, stopping when the sink does — except
// into a bare *rel.CountSink, which takes its length unsorted. Its work is
// charged to a work.Meter at every tuple of Q_{i-1} and every candidate.
package chainalg

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"repro/internal/bounds"
	"repro/internal/expand"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/work"
)

// Value aliases the relational value type.
type Value = rel.Value

// Stats reports the work performed, making the Õ(Σ_i Π_j n_ij^{w_j})
// behaviour observable.
type Stats struct {
	Chain         lattice.Chain
	TuplesVisited int        // candidate tuples enumerated from the min relation
	Probes        int        // index probes for verification
	Intermediate  []int      // |Q_i| per chain step
	m             work.Meter // the run's, kept off its stack
}

// Work is the run's counted work, the units its work.Meter is charged in:
// the index operations the proof of Theorem 5.7 charges.
func (s *Stats) Work() int { return s.TuplesVisited + s.Probes }

// RunInto evaluates the query along the given chain, which must be good for
// all inputs and have no isolated step, emitting into sink: the final chain
// relation Q_k is sorted and streamed, stopping early when the sink does (a
// bare *rel.CountSink is handed its length instead). A nil chain is Best's
// at q's sizes, or ErrNoGoodChain when it has no finite bound.
func RunInto(ctx context.Context, q *query.Q, c lattice.Chain, sink rel.Sink) (*Stats, error) {
	if c == nil {
		cb := Best(q)
		if !cb.Finite {
			return &Stats{}, ErrNoGoodChain
		}
		c = cb.Chain
	}
	st := &Stats{Chain: c}
	l := q.Lattice()
	inputs := q.InputElems()
	if !l.IsChain(c) {
		return st, fmt.Errorf("chainalg: not a chain")
	}
	if !l.GoodForAll(c, inputs) {
		return st, fmt.Errorf("chainalg: chain is not good for the inputs")
	}
	st.m.Start(ctx, "")
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
		ciVars := l.Elems[c[i]]
		prevVars := prev.VarSet() // C_{i-1}; none for Q_0, even if 0̂ holds constants

		// Relations covering step i, with their projections Π_{R_j∧C_i}(R_j⁺)
		// indexed so that the C_{i-1}-shared attributes form the prefix. All
		// of it is resolved here, outside the tuple loop, and all of it is
		// the instance's: a warm run builds and compiles nothing.
		type covering struct {
			ix     *rel.Index
			shared []int           // vars(R_j ∧ C_{i-1}): the join attributes, ix's leading columns
			run    *rel.KeyLookup  // ix's rows by their shared-variable prefix; nil when nothing is shared
			member *rel.KeyLookup  // ix's rows by all their variables
			prog   *expand.Program // (t, row of ix) → C_i
		}
		var covs []*covering
		for j, r := range inputs {
			if !l.CoversStep(c, r, i) {
				continue
			}
			projSet := l.Elems[l.Meet(r, c[i])]
			sharedSet := l.Elems[l.Meet(r, c[i-1])].Intersect(prevVars)
			proj := e.Project(expanded[j], projSet)
			cv := &covering{shared: sharedSet.Members()}
			cv.ix = proj.IndexOn(append(sharedSet.Members(), projSet.Diff(sharedSet).Members()...)...)
			if len(cv.shared) > 0 {
				cv.run = cv.ix.Lookup(len(cv.shared))
			}
			cv.member = cv.ix.Lookup(proj.Arity())
			// t ∈ Q_{i-1} was expanded to C_{i-1} by the previous step and the
			// row comes from a projection of R_j⁺ onto a closed set, so each
			// half already satisfies the FDs inside it (Q_0 carries nothing).
			cv.prog = e.Program(prevVars.Union(projSet), ciVars, prevVars, projSet)
			covs = append(covs, cv)
		}
		if len(covs) == 0 {
			return st, fmt.Errorf("chainalg: step %d is an isolated vertex", i)
		}

		ciMembers := ciVars.Members()
		out := rel.New(fmt.Sprintf("Q%d", i), ciMembers...)
		nt := make(rel.Tuple, len(ciMembers))
		for ti := 0; ti < prev.Len(); ti++ {
			if err := st.m.Check(ctx, st.Work()); err != nil {
				return st, err
			}
			t := prev.Row(ti)
			for k, v := range prev.Attrs {
				vals[v] = t[k]
			}
			// Choose j* = argmin |t ⋈ Π_{R_j∧C_i}(R_j)|.
			var best *covering
			bestLo, bestHi := 0, 0
			for _, cv := range covs {
				lo, hi := 0, cv.ix.Len()
				if cv.run != nil {
					lo, hi = cv.run.Run(vals, cv.shared)
				}
				st.Probes++
				if best == nil || hi-lo < bestHi-bestLo {
					best, bestLo, bestHi = cv, lo, hi
				}
			}
			// Enumerate candidates from the cheapest relation, expand each
			// to C_i, and verify against the other covering relations.
			for pos := bestLo; pos < bestHi; pos++ {
				if err := st.m.Check(ctx, st.Work()); err != nil {
					return st, err
				}
				st.TuplesVisited++
				// The row is in index priority order: position k holds the
				// value of variable Attrs()[k].
				row := best.ix.Row(pos)
				for k, v := range best.ix.Attrs() {
					vals[v] = row[k]
				}
				if !e.Run(best.prog, vals) {
					continue
				}
				okAll := true
				for _, cv := range covs {
					if cv == best {
						continue
					}
					st.Probes++
					if _, ok := cv.member.Find(vals, cv.ix.Attrs()); !ok {
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
		if observeStep != nil {
			observeStep(out)
		}
		st.Intermediate = append(st.Intermediate, out.Len())
		prev = out
	}
	st.m.Stop(st.Work())
	if n, ok := sink.(*rel.CountSink); ok {
		n.N += prev.Len() // duplicate-free as it stands: a count needs no order
		return st, nil
	}
	prev.SortDedup() // the Sink contract's order; it drops nothing
	rel.Stream(prev, sink)
	return st, nil
}

// observeStep, when set (by tests), sees every Q_i as the step leaves it.
var observeStep func(qi *rel.Relation)

// ErrNoGoodChain is the error of RunInto with a nil chain, and of an engine
// plan for an explicit chain request, when no good chain has a finite bound:
// the chain algorithm does not apply to the instance, which is not a bug.
var ErrNoGoodChain = errors.New("chainalg: no good chain with a finite bound")

// bestChain is the shape's slot for the best good chain at given sizes.
var bestChain = query.NewSlot[*bounds.ChainResult]()

// Best returns bounds.BestChainBound(q, 64), searched once per (shape,
// sizes): the chain the planner compares is the chain RunInto climbs when
// given none. On a lattice small enough to enumerate, the search stops at the
// first chain that reaches the LLP optimum (smalg.LLP, the slot the planner
// fills first), which is the chain the full search returns; a larger lattice
// has no enumeration to cut, and never pays for an LLP here.
func Best(q *query.Q) *bounds.ChainResult { return bestChain.Get(q, searchBest) }

func searchBest(q *query.Q) *bounds.ChainResult {
	return bounds.BestChainBoundWithFloor(q, 64, func() *big.Rat { return smalg.LLP(q).LogBound })
}
