package engine

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/wcoj"
)

// workers is a run's pool size before the schedule's clamp: Workers, or
// GOMAXPROCS when Workers ≤ 0, and 1 below MinParallelRows input rows.
// RunInto and ProfileSplits both read it.
func (o *Options) workers(q *query.Q) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 || q.TotalSize() < o.MinParallelRows {
		return 1
	}
	return w
}

// morselSchedule is a parallel run's schedule: the partition variable v,
// the pool size, and the split instances in ascending v-range order. A
// schedule without parts is a sequential run.
type morselSchedule struct {
	v       int
	workers int
	parts   []*query.Q
}

// splitMemo is the Bound's memo of the last schedule's inputs: v's sorted
// distinct-value union over the relations, and the last split of it into
// len(parts) morsel instances.
type splitMemo struct {
	v     int
	vals  []rel.Value
	parts []*query.Q
}

// schedule decides how plan runs on workers: the one schedule every run of
// plan on workers executes, the attempt's included, and ProfileSplits
// profiles (DESIGN.md, "Morsel execution", has the reasons):
//
//   - v is choosePartitionVar's;
//   - the pool is clamped to v's distinct-value count D; one worker, one
//     distinct value or nothing to partition is a sequential run;
//   - generic join runs D/morselSize morsels, at least morselTargetPerWorker
//     per worker and at most D; the FD machines, whose setup is paid per
//     split instance, run one morsel per worker;
//   - the split instances are morselRels'.
//
// v's distinct values and the last split are memoized on the Bound (one
// entry; the split is kept across pool sizes giving the same morsel count),
// so repeated runs skip the sort and the split and reuse each morsel's warm
// index caches and prepared record. Morsels make no plan records.
func (b *Bound) schedule(plan *Plan, workers int) morselSchedule {
	if workers <= 1 {
		return morselSchedule{}
	}
	v := choosePartitionVar(b.q, plan)
	if v < 0 {
		return morselSchedule{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	m := b.sched
	if m == nil || m.v != v {
		var vals []rel.Value
		for _, r := range b.q.Rels {
			if c := r.Col(v); c >= 0 {
				for i := 0; i < r.Len(); i++ {
					vals = append(vals, r.Row(i)[c])
				}
			}
		}
		slices.Sort(vals)
		m = &splitMemo{v: v, vals: slices.Compact(vals)}
		b.sched = m
	}
	d := len(m.vals)
	if workers = min(workers, d); workers <= 1 {
		return morselSchedule{}
	}
	n := workers
	if plan.Algorithm == AlgGenericJoin {
		n = min(max((d+morselSize-1)/morselSize, morselTargetPerWorker*workers), d)
	}
	if len(m.parts) != n {
		m.parts = morselRels(b.q, v, m.vals, n)
	}
	return morselSchedule{v: v, workers: workers, parts: m.parts}
}

// runBuffered executes one split into a private collector and returns its
// sorted run and the work it counted, charging the rows to the run's gauge:
// row by row through a gaugeSink when a limit can trip mid-run (a tripped
// gauge stops this split's producer, the group context stops the others),
// once afterwards when it cannot — which keeps the collector bare for
// rel.Stream's adoption fast path.
func runBuffered(ctx context.Context, qp *query.Q, plan *Plan, g *memGauge) (*rel.Relation, int, error) {
	vars := qp.AllVars().Members()
	c := rel.NewCollect("Q", vars...)
	var sink rel.Sink = c
	if g.limit > 0 {
		sink = &gaugeSink{s: c, g: g}
	}
	spent, _, err := runOneInto(ctx, qp, plan, sink)
	if err != nil {
		return nil, spent, err
	}
	if g.limit <= 0 {
		g.add(tupleBytes(c.R.Len(), len(vars)))
	}
	return c.R, spent, nil
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
