// Package wcoj implements the FD-blind baselines the paper compares
// against: Generic-Join (a worst-case-optimal join in the AGM sense,
// representative of NPRR/LFTJ [18, 19, 23]) and a traditional left-deep
// binary hash-join plan.
//
// Both handle FDs only in the minimal LFTJ way (footnote 1 of the paper):
// a variable is bound by a UDF as soon as its arguments are bound, and FD
// consistency is checked as soon as possible — but neither uses FDs to
// improve its search strategy or its bound, which is exactly why they are
// Ω(N²) on the Example 5.8 instance while the Chain Algorithm is Õ(N^{3/2}).
//
// Both entry points are safe to call concurrently on frozen inputs: all
// working state is per-call, and input relations are only read (their index
// caches are mutex-guarded).
//
// Execution is sink-based (see rel.Sink): GenericJoinInto and
// BinaryPlanInto emit rows into a sink in the final output order and stop
// the moment the sink does. Generic join with the identity variable order —
// the default for FD-light queries — streams natively during the trie
// descent, so a LIMIT-1 consumer pays only for the first successful
// descent; other orders (and the binary plan) buffer, sort, and flush. A
// caller that wants the materialized relation passes a rel.NewCollect sink.
package wcoj

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/expand"
	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Value aliases the relational value type.
type Value = rel.Value

// errStop is the internal signal that the sink stopped the producer; it
// never escapes the package.
var errStop = errors.New("wcoj: sink stopped execution")

// cancelCheckInterval is how many recursion steps pass between context
// checks in the descent loops — frequent enough that cancellation is
// prompt, rare enough that ctx.Err()'s mutex never shows in profiles.
const cancelCheckInterval = 256

// Stats reports the work done by an execution, to make intermediate-size
// blowups observable in experiments.
type Stats struct {
	Extensions int // candidate tuples materialized/extended
	Lookups    int // membership probes
}

// identityOrder reports whether order is 0, 1, 2, ... — the case in which
// the descent below enumerates output rows in exactly the final output
// order (ascending-variable attributes, lexicographically sorted).
//
// Why: at depth d the recursion either iterates variable d's candidates in
// ascending trie order, or skips it because an FD already derived it — and
// a derived variable's value is a function of the variables bound before
// it, all of which have positions < d under the identity order. So the
// first position at which two emitted rows differ is always an iterated
// position, iterated ascending, and no complete assignment repeats: the
// emission is sorted and duplicate-free by construction.
func identityOrder(order []int) bool {
	for i, v := range order {
		if v != i {
			return false
		}
	}
	return true
}

// GenericJoinInto evaluates the query with the generic worst-case-optimal
// join over the given global variable order, emitting result rows into sink
// (see rel.Sink for the ordering contract). Variables contained in no
// relation must be derivable via UDF FDs from earlier variables. Under the
// identity variable order rows stream natively during the trie descent —
// the sink sees the first row after the first successful descent, and
// stopping the sink abandons the rest of the search. Any other order
// buffers, sorts, deduplicates, and then streams. ctx is checked every few
// hundred descent steps; cancellation aborts with ctx's error.
//
// Each relation is viewed as a level-ordered trie (rel.TrieIndex) whose
// level order is the global order restricted to its attributes, so the
// bound variables always form a trie path. The per-variable step is a
// k-way intersection of the current nodes' child runs: the relation with
// the smallest fanout seeds the candidates and the others are probed by
// galloping search with monotone cursors (the seed enumerates ascending).
// Descending one trie level per binding replaces the full-index binary
// search the old implementation paid per probe per depth.
func GenericJoinInto(ctx context.Context, q *query.Q, order []int, sink rel.Sink) (*Stats, error) {
	if !identityOrder(order) {
		buf := rel.NewCollect("Q", q.AllVars().Members()...)
		st, err := genericJoin(ctx, q, order, buf)
		if err != nil {
			return st, err
		}
		buf.R.SortDedup()
		rel.Stream(buf.R, sink)
		return st, nil
	}
	return genericJoin(ctx, q, order, sink)
}

// genericJoin is the descent shared by both entry modes; it pushes rows
// into sink as they are found, in depth-first enumeration order.
func genericJoin(ctx context.Context, q *query.Q, order []int, sink rel.Sink) (*Stats, error) {
	if len(order) != q.K {
		return nil, fmt.Errorf("wcoj: order must list all %d variables", q.K)
	}
	e := expand.New(q)
	st := &Stats{}

	// Trie per relation, levels = global order restricted to its attrs.
	type relIx struct {
		trie    *rel.TrieIndex
		attrSet varset.Set
		arity   int
		depth   int     // trie levels descended = length of the bound prefix
		nodes   []int32 // node id per descended level
	}
	rixs := make([]*relIx, len(q.Rels))
	prioBuf := make([]int, 0, q.K)
	for j, r := range q.Rels {
		if err := ctx.Err(); err != nil {
			return st, err // trie construction is O(data) per relation
		}
		prio := prioBuf[:0]
		for _, v := range order {
			if r.Col(v) >= 0 {
				prio = append(prio, v)
			}
		}
		rixs[j] = &relIx{trie: r.IndexOn(prio...).Trie(), attrSet: r.VarSet(),
			arity: r.Arity(), nodes: make([]int32, r.Arity())}
	}
	nr := len(rixs)

	// children returns the node range of ri's current node's children.
	children := func(ri *relIx) (int32, int32) {
		if ri.depth == 0 {
			return ri.trie.Root()
		}
		return ri.trie.Children(ri.depth-1, ri.nodes[ri.depth-1])
	}

	outVars := q.AllVars().Members()
	vals := make([]Value, q.K)
	ntBuf := make(rel.Tuple, q.K)
	ticks := 0
	// Per-recursion-depth scratch (depth ≤ K): saved trie depths around
	// descent, and the galloping cursors of the non-seed relations during
	// candidate intersection. vals needs no save/restore: every reader
	// masks it through have, so entries for unbound variables are never
	// observed and simply get overwritten on the next binding.
	depthStack := make([]int, (q.K+1)*nr)
	cursStack := make([]int32, (q.K+1)*nr)

	// sync descends every relation's trie along newly bound variables: each
	// level whose variable is in have must hold that variable's value. It
	// reports false (leaving partial descents for the caller's depth
	// restore) when some relation rules the current binding out.
	sync := func(have varset.Set) bool {
		for _, ri := range rixs {
			for ri.depth < ri.arity {
				v := ri.trie.Attr(ri.depth)
				if !have.Contains(v) {
					break
				}
				lo, hi := children(ri)
				st.Lookups++
				pos := ri.trie.Seek(ri.depth, lo, hi, vals[v])
				if pos < 0 {
					return false
				}
				ri.nodes[ri.depth] = pos
				ri.depth++
			}
		}
		return true
	}

	var rec func(d int, have varset.Set) error
	rec = func(d int, have varset.Set) error {
		// &-mask instead of %, and == 1 so the very first descent step
		// already observes a dead context (interval is a power of two).
		// The fault-injection hook shares the cadence (and its no-op cost,
		// one atomic load per interval).
		if ticks++; ticks&(cancelCheckInterval-1) == 1 {
			faultinject.Fire(faultinject.SiteTrieDescent)
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if d == q.K {
			for i, v := range outVars {
				ntBuf[i] = vals[v]
			}
			if !sink.Push(ntBuf) {
				return errStop
			}
			return nil
		}
		v := order[d]
		if have.Contains(v) {
			// Bound earlier by a UDF (footnote-1 behaviour): membership in
			// every relation containing v was verified by the sync that
			// followed the binding (or will be, once the relation's earlier
			// attributes are bound too).
			return rec(d+1, have)
		}
		// Pick the relation containing v with the smallest fanout as the
		// intersection seed.
		bestJ, bestCount := -1, 0
		for j, ri := range rixs {
			if !ri.attrSet.Contains(v) {
				continue
			}
			// All of ri's attrs before v in its level order are bound, so
			// its next unbound level is exactly v.
			lo, hi := children(ri)
			if bestJ < 0 || int(hi-lo) < bestCount {
				bestJ, bestCount = j, int(hi-lo)
			}
		}
		if bestJ < 0 {
			// v is in no relation: it must be derivable. Extend via FDs.
			have2, ok := e.Extend(vals, have)
			if !ok {
				return nil
			}
			if !have2.Contains(v) {
				return fmt.Errorf("wcoj: variable %s neither stored nor derivable at depth %d",
					q.Names[v], d)
			}
			if !sync(have2) {
				return nil
			}
			return rec(d, have2)
		}
		seed := rixs[bestJ]
		slo, shi := children(seed)
		// Galloping cursors for the other relations containing v, one per
		// relation, advancing monotonically with the ascending seed values.
		curs := cursStack[d*nr : (d+1)*nr]
		for j, ri := range rixs {
			if j != bestJ && ri.attrSet.Contains(v) {
				lo, _ := children(ri)
				curs[j] = lo
			}
		}
		depths := depthStack[d*nr : (d+1)*nr]
		for p := slo; p < shi; p++ {
			st.Extensions++
			val := seed.trie.Val(seed.depth, p)
			vals[v] = val
			// Intersect: gallop every other relation's child run to val.
			ok := true
			for j, rj := range rixs {
				if j == bestJ || !rj.attrSet.Contains(v) {
					continue
				}
				_, hi := children(rj)
				st.Lookups++
				pos := rj.trie.SeekGE(rj.depth, curs[j], hi, val)
				curs[j] = pos
				if pos == hi || rj.trie.Val(rj.depth, pos) != val {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			// Bind: descend the matching relations one level, then FD
			// propagation + consistency (LFTJ footnote-1 behaviour) and a
			// sync over whatever the FDs derived.
			for j, ri := range rixs {
				depths[j] = ri.depth
			}
			seed.nodes[seed.depth] = p
			seed.depth++
			for j, rj := range rixs {
				if j == bestJ || !rj.attrSet.Contains(v) {
					continue
				}
				rj.nodes[rj.depth] = curs[j]
				rj.depth++
			}
			have2, ok := e.Extend(vals, have.Add(v))
			if ok && sync(have2) {
				if err := rec(d+1, have2); err != nil {
					return err
				}
			}
			for j, ri := range rixs {
				ri.depth = depths[j]
			}
		}
		return nil
	}
	if err := rec(0, varset.Empty); err != nil {
		if errors.Is(err, errStop) {
			return st, nil // the sink stopped us: a consumer decision, not an error
		}
		return st, err
	}
	return st, nil
}

// BinaryPlanInto evaluates the query with a left-deep hash-join plan in the
// given relation order, expanding and FD-filtering at the end — the
// "traditional query plan" baseline of the introduction — and emits the
// result into sink. A nil order means the greedy order: start from the
// smallest relation and repeatedly join the smallest relation sharing a
// variable with the accumulated set, so connected join graphs never
// cross-product. Hash joins must materialize their intermediates, so what
// the sink buys is at the edges: ctx is checked between joins (a cancelled
// query stops before the next — potentially quadratic — intermediate is
// built), and the final expand-and-filter pass streams the sorted result,
// stopping early when the sink does.
func BinaryPlanInto(ctx context.Context, q *query.Q, relOrder []int, sink rel.Sink) (*Stats, error) {
	if len(relOrder) == 0 {
		relOrder = greedyOrder(q)
	}
	st := &Stats{}
	var acc *rel.Relation
	for _, j := range relOrder {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		if acc == nil {
			acc = q.Rels[j].Clone()
		} else {
			acc = rel.Join(acc, q.Rels[j])
		}
		st.Extensions += acc.Len()
	}
	_, err := expand.New(q).ExpandRelationInto(ctx, acc, q.AllVars(), sink)
	return st, err
}

// greedyOrder picks a left-deep join order: smallest relation first, then
// always the smallest not-yet-joined relation that shares a variable with
// the accumulated variable set (ties by index; a disconnected join graph
// falls back to the smallest remaining relation).
func greedyOrder(q *query.Q) []int {
	n := len(q.Rels)
	order := make([]int, 0, n)
	used := make([]bool, n)
	var have varset.Set
	for len(order) < n {
		best := -1
		bestConn := false
		for j, r := range q.Rels {
			if used[j] {
				continue
			}
			conn := len(order) == 0 || !have.Intersect(r.VarSet()).IsEmpty()
			if best < 0 || (conn && !bestConn) ||
				(conn == bestConn && r.Len() < q.Rels[best].Len()) {
				best, bestConn = j, conn
			}
		}
		used[best] = true
		order = append(order, best)
		have = have.Union(q.Rels[best].VarSet())
	}
	return order
}

// DefaultOrder returns the variable order generic join runs with absent an
// explicit one: ascending variable id, except that a variable stored in no
// relation is deferred until the variables ordered before it can actually
// derive it (via a guarded FD lookup or a UDF, matching expand.Extend).
// The plain identity order would dead-end on queries whose derived
// variables precede their determining sets — e.g. Fig. 9, where P, S, T
// are derivable only after an input variable M, N, or O is bound.
func DefaultOrder(q *query.Q) []int {
	covered := q.CoveredVars()
	order := make([]int, 0, q.K)
	var have varset.Set
	for len(order) < q.K {
		reach := derivableFrom(q, have)
		picked := -1
		for v := 0; v < q.K; v++ {
			if !have.Contains(v) && (covered.Contains(v) || reach.Contains(v)) {
				picked = v
				break
			}
		}
		if picked < 0 {
			// Not computable from the prefix (CheckComputable rejects such
			// queries); append the lowest remaining variable and let
			// GenericJoinInto report the error.
			for v := 0; v < q.K; v++ {
				if !have.Contains(v) {
					picked = v
					break
				}
			}
		}
		order = append(order, picked)
		have = have.Add(picked)
	}
	return order
}

// derivableFrom returns the fixpoint of variables expand.Extend can bind
// starting from have: an FD applies when its From is available and it
// either has a guard relation to look up or a UDF for the target variable.
func derivableFrom(q *query.Q, have varset.Set) varset.Set {
	cl := have
	for changed := true; changed; {
		changed = false
		for _, f := range q.FDs.FDs {
			if !cl.ContainsAll(f.From) || cl.ContainsAll(f.To) {
				continue
			}
			for _, v := range f.To.Members() {
				if cl.Contains(v) {
					continue
				}
				if f.Guarded() || (f.Fns != nil && f.Fns[v] != nil) {
					cl = cl.Add(v)
					changed = true
				}
			}
		}
	}
	return cl
}
