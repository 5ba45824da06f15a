// Metamorphic conformance checks: transformations of a query instance with
// a known effect on the output. Each check rebuilds the instance, runs the
// engine (planner choice, sequential and parallel), and demands the
// transformed output byte-for-byte:
//
//	row-permutation     reverse the insertion order of every relation's
//	                    rows — the output must not change (executors sort)
//	row-duplication     append every row twice — set semantics and the FDs
//	                    are preserved, the output must not change
//	relation-permutation reverse the order of the relations (remapping FD
//	                    and degree-bound guard indices) — the output must
//	                    not change
//	value-renaming      apply an injective value map to every relation and
//	                    to the expected output — applicable only when no FD
//	                    carries a UDF (UDFs compute on raw values)
package oracle

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
)

// metamorphicChecks runs every applicable check against the reference
// output and records failures on res.
func metamorphicChecks(ctx context.Context, res *Result, q *query.Q, want *rel.Relation) {
	add := func(name string, f func() error) { check(&res.Verdict, &res.Metamorphic, name, f) }
	add("row-permutation", func() error {
		return runMetamorphic(ctx, transformRels(q, reverseRows), want)
	})
	add("row-duplication", func() error {
		return runMetamorphic(ctx, transformRels(q, duplicateRows), want)
	})
	add("relation-permutation", func() error {
		qp, err := reverseRelations(q)
		if err != nil {
			return err
		}
		return runMetamorphic(ctx, qp, want)
	})
	add("value-renaming", func() error {
		if hasUDF(q.FDs) {
			return skip("query has UDF FDs: renaming values would break them")
		}
		return runMetamorphic(ctx, transformRels(q, renameValues), renameRelation(want))
	})
}

// runMetamorphic evaluates the transformed instance with the planner's
// choice, sequentially and in parallel, and compares both against expect.
func runMetamorphic(ctx context.Context, q *query.Q, expect *rel.Relation) error {
	p, err := engine.Prepare(q)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		return fmt.Errorf("bind: %w", err)
	}
	for _, opts := range []*engine.Options{
		{Workers: 1},
		{Workers: 3, MinParallelRows: 1},
	} {
		out, _, err := b.Run(ctx, opts)
		if err != nil {
			return fmt.Errorf("run (workers=%d): %w", opts.Workers, err)
		}
		if !rel.Identical(out, expect) {
			return fmt.Errorf("output differs (workers=%d): %d vs %d rows",
				opts.Workers, out.Len(), expect.Len())
		}
	}
	return nil
}

// --- instance transformations ---------------------------------------------

// transformRels rebuilds q with every relation passed through f, keeping
// the shape (names, FDs, degree bounds) intact.
func transformRels(q *query.Q, f func(*rel.Relation) *rel.Relation) *query.Q {
	rels := make([]*rel.Relation, len(q.Rels))
	for j, r := range q.Rels {
		rels[j] = f(r)
	}
	return q.WithFreshRels(rels)
}

// reverseRows returns a copy of r with rows in reversed insertion order
// (not re-sorted: executors must not depend on input row order).
func reverseRows(r *rel.Relation) *rel.Relation {
	out := rel.New(r.Name, r.Attrs...)
	out.Grow(r.Len())
	for i := r.Len() - 1; i >= 0; i-- {
		out.AddTuple(r.Row(i))
	}
	return out
}

// duplicateRows returns a copy of r with every row appended twice. Under
// set semantics (and since duplicates cannot violate an FD or a degree
// bound, both of which count distinct extensions) the output is unchanged.
func duplicateRows(r *rel.Relation) *rel.Relation {
	out := rel.New(r.Name, r.Attrs...)
	out.Grow(2 * r.Len())
	for i := 0; i < r.Len(); i++ {
		out.AddTuple(r.Row(i))
		out.AddTuple(r.Row(i))
	}
	return out
}

// valueMap is the injective (and monotonic) renaming used by the
// value-renaming check.
func valueMap(v rel.Value) rel.Value { return v*13 + 7 }

// renameValues maps every value of r through valueMap.
func renameValues(r *rel.Relation) *rel.Relation {
	out := rel.New(r.Name, r.Attrs...)
	out.Grow(r.Len())
	t := make(rel.Tuple, r.Arity())
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		for c := range row {
			t[c] = valueMap(row[c])
		}
		out.AddTuple(t)
	}
	return out
}

// renameRelation maps the expected output through valueMap and restores
// sorted order (valueMap is monotonic, so sorting is preserved anyway; the
// SortDedup keeps the expectation independent of that detail).
func renameRelation(r *rel.Relation) *rel.Relation {
	out := renameValues(r)
	out.SortDedup()
	return out
}

// reverseRelations rebuilds q with its relations in reversed order,
// remapping every guarded FD and degree bound to the new indices. The
// output must be invariant: join order is the planner's business, never
// the catalog's.
func reverseRelations(q *query.Q) (*query.Q, error) {
	n := len(q.Rels)
	newIndex := make([]int, n)
	for old := range newIndex {
		newIndex[old] = n - 1 - old
	}
	nq := query.New(q.Names...)
	for j := n - 1; j >= 0; j-- {
		nq.AddRel(q.Rels[j].Clone())
	}
	for _, f := range q.FDs.FDs {
		g := f.Guard
		if f.Guarded() {
			if g >= n {
				return nil, fmt.Errorf("FD guard %d out of range", g)
			}
			g = newIndex[g]
		}
		fns := f.Fns
		if fns != nil {
			fns = make(map[int]fd.UDF, len(f.Fns))
			for k, v := range f.Fns {
				fns[k] = v
			}
		}
		nq.FDs.Add(f.From, f.To, g, fns)
	}
	for _, d := range q.DegreeBounds {
		if d.Guard < 0 || d.Guard >= n {
			return nil, fmt.Errorf("degree bound guard %d out of range", d.Guard)
		}
		nq.AddDegreeBound(d.X, d.Y, d.MaxDegree, newIndex[d.Guard])
	}
	return nq, nil
}

// hasUDF reports whether any FD of the set carries a user-defined function
// (equivalently: is unguarded), which makes value renaming inapplicable.
func hasUDF(s *fd.Set) bool {
	for _, f := range s.FDs {
		if !f.Guarded() {
			return true
		}
	}
	return false
}
