package engine

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/wcoj"
)

// defaultWorkers is the pool size when Options.Workers ≤ 0.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// runParallelInto executes the plan by splitting one variable's domain
// across a worker pool and merging the per-split sorted outputs into sink:
// the partition variable's sorted distinct-value union is range-partitioned
// into morsels pulled by the pool with work stealing, merged by a streaming
// frontier or a tournament (runMorselsInto).
//
// Soundness: every relation containing the partition variable v is filtered
// to a subset of v-values (a contiguous value range); relations without v
// are shared read-only. Each output tuple binds exactly one v-value, so it
// is produced in exactly one split — splits are pairwise disjoint and their
// union is the sequential output. FD guards containing v stay consistent: a
// guard lookup that fails in a split can only fail for tuples that also fail
// the guard's own membership constraint there, which no output tuple of the
// split does. Every executor's per-split output is sorted and deduplicated,
// so merging the splits in sorted order delivers rows byte-identical to —
// and in the same order as — the sequential execution; see runMorselsInto
// for the frontier-streaming refinement of this argument.
//
// Worker count is clamped to the partition variable's distinct-value count
// (surfaced in Stats.Workers): beyond that, extra workers would own empty
// splits and pay goroutine + merge overhead for nothing. One worker, one
// distinct value or an empty domain runs the plan sequentially on the whole
// instance. stopped reports that the sink ended the run (or a memory trip
// did) before it finished: a consumer decision, not an error.
func (b *Bound) runParallelInto(ctx context.Context, plan *Plan, workers int, g *memGauge, st *Stats, sink rel.Sink) (stopped bool, err error) {
	var v int
	var vals []rel.Value
	if workers > 1 {
		if err := ctx.Err(); err != nil {
			return false, err // don't pay the partition split for a dead context
		}
		if v = choosePartitionVar(b.q, plan); v >= 0 {
			vals = b.distinctVals(v)
		}
		workers = min(workers, len(vals))
	}
	if workers <= 1 {
		st.Workers, st.PartitionVar = 1, -1
		ws, err := runOneInto(ctx, b.q, plan, sink)
		st.extensions += ws.Extensions
		st.lookups += ws.Lookups
		return ws.Stopped, err
	}
	return b.runMorselsInto(ctx, plan, v, vals, workers, g, st, sink)
}

// runBuffered executes one split into a private collector and returns its
// sorted run, charging the rows to the run's gauge: row by row through a
// gaugeSink when a limit can trip mid-run (a tripped gauge stops this
// split's producer, the group context stops the others), once afterwards
// when it cannot — which keeps the collector bare for rel.Stream's adoption
// fast path.
func runBuffered(ctx context.Context, qp *query.Q, plan *Plan, g *memGauge) (*rel.Relation, wcoj.Stats, error) {
	vars := qp.AllVars().Members()
	c := rel.NewCollect("Q", vars...)
	var sink rel.Sink = c
	if g.limit > 0 {
		sink = &gaugeSink{s: c, g: g}
	}
	ws, err := runOneInto(ctx, qp, plan, sink)
	if err != nil {
		return nil, ws, err
	}
	if g.limit <= 0 {
		g.add(tupleBytes(c.R.Len(), len(vars)))
	}
	return c.R, ws, nil
}

// choosePartitionVar picks the variable whose domain is split across the
// pool: the first variable of the chain's first step when the plan climbs a
// chain (that step's candidate enumeration is the hot loop); the descent's
// first variable when the plan is generic join (a split on any deeper
// variable makes every morsel re-enumerate the levels above it, and it is
// the output's first column exactly when the frontier can stream);
// otherwise the covered variable appearing in the most relations
// (maximizing how much of the instance the filter shrinks). Returns -1 when
// nothing is partitionable.
func choosePartitionVar(q *query.Q, plan *Plan) int {
	covered := q.CoveredVars()
	if plan.Algorithm == AlgGenericJoin && q.K > 0 {
		if v := wcoj.DefaultOrder(q)[0]; covered.Contains(v) {
			return v
		}
	}
	if plan.Algorithm == AlgChain && len(plan.Chain) > 1 {
		l := q.Lattice()
		for _, v := range l.Elems[plan.Chain[1]].Members() {
			if covered.Contains(v) {
				return v
			}
		}
	}
	bestV, bestCount := -1, 0
	for _, v := range covered.Members() {
		count := 0
		for _, r := range q.Rels {
			if r.Col(v) >= 0 {
				count++
			}
		}
		if count > bestCount {
			bestV, bestCount = v, count
		}
	}
	return bestV
}

// distinctVals returns (memoized on the Bound) the sorted distinct union of
// variable v's values across every relation containing v. Its length is the
// worker-clamp ceiling, and the morsel scheduler range-partitions it.
func (b *Bound) distinctVals(v int) []rel.Value {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.valsOK && b.valsV == v {
		return b.vals
	}
	var vals []rel.Value
	for _, r := range b.q.Rels {
		c := r.Col(v)
		if c < 0 {
			continue
		}
		for i := 0; i < r.Len(); i++ {
			vals = append(vals, r.Row(i)[c])
		}
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	b.valsOK, b.valsV, b.vals = true, v, vals
	return vals
}
