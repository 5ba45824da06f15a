// Package expand implements the Expansion Procedure of Sec. 2: extending a
// tuple or relation over attributes X to the closure X⁺ by repeatedly
// applying functional dependencies — joining with the guard projection for
// guarded FDs, and evaluating the UDF for unguarded ones.
//
// There are two forms. Extend / ExpandTuple run the fixpoint dynamically and
// assume nothing about the tuple: the reference (naive), the first build of
// R_j⁺, the binary plan's final pass, and the oracle the other form is tested
// against. A Program (program.go) is the same fixpoint compiled for tuples of
// one kind — bound on a fixed set and already FD-consistent on stated subsets
// of it — into a straight line that fires each remaining FD once: what
// generic join runs per level, and the chain algorithm, SMA and CSMA per
// tuple on the tables they build themselves.
//
// What is a function of the query instance alone — the per-FD lookup tables,
// R_j⁺ per input, the projections Π_X(R_j⁺) and degree-class partitions the
// executors ask for, the programs — lives in the instance's Inputs record
// (inputs.go): built lazily, once, shared read-only by every run. Nobody
// mutates a record relation; rel.Intersect, Semijoin and Project return new
// ones. An Expander is the per-run half, a view of the record plus scratch
// buffers: NOT safe for concurrent use, built per executor run by New (two
// allocations).
package expand

import (
	"context"
	"fmt"

	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
	"repro/internal/work"
)

// Value aliases the relational value type.
type Value = rel.Value

// fdTable is the read-only lookup form of one FD: a guarded FD reads the
// To-values (unique by the FD promise query.Validate checks) off the guard
// row its From-values select, an unguarded one calls its UDFs.
type fdTable struct {
	from    varset.Set
	fromIdx []int          // From.Members()
	toIdx   []int          // To.Members()
	fns     []fd.UDF       // unguarded: UDFs aligned with toIdx
	guard   *rel.KeyLookup // guarded: the guard relation keyed on fromIdx
	toCols  []int          // guarded: the guard's columns of toIdx
}

// Expander applies the instance's FDs to tuples and relations.
type Expander struct {
	q       *query.Q
	in      *Inputs
	argBuf  []Value    // reusable UDF argument buffer, allocated by the first UDF step
	settled []bool     // per-call scratch: FD already applied and checked
	rows    work.Meter // ExpandRelation's, kept off its stack
}

// New builds an Expander over the query instance's prepared record.
func New(q *query.Q) *Expander {
	in := For(q)
	return &Expander{q: q, in: in, settled: make([]bool, len(in.fds))}
}

// Extend applies every applicable FD to the partial tuple vals (indexed by
// variable id) until fixpoint. It both derives unbound variables and checks
// consistency of bound ones. It returns the new bound set and false if the
// tuple is inconsistent with some FD (it cannot appear in the output).
//
// Once an FD has fired its From values can no longer change within this
// call, so it is marked settled and skipped on later fixpoint passes —
// guard lookups and UDFs run at most once per FD per Extend.
func (e *Expander) Extend(vals []Value, have varset.Set) (varset.Set, bool) {
	settled := e.settled
	for i := range settled {
		settled[i] = false
	}
	for changed := true; changed; {
		changed = false
		for i := range e.in.fds {
			f := &e.in.fds[i]
			if settled[i] || !have.ContainsAll(f.from) {
				continue
			}
			settled[i] = true
			var row rel.Tuple // guarded: the guard row the From-values select
			var args []Value  // unguarded: the UDF arguments
			if f.guard != nil {
				var ok bool
				if row, ok = f.guard.Find(vals, f.fromIdx); !ok {
					// The From-combination never occurs in the guard; the
					// tuple cannot be part of the output.
					return have, false
				}
			} else {
				args = e.argBuf[:0]
				for _, v := range f.fromIdx {
					args = append(args, vals[v])
				}
				e.argBuf = args // grown by the first UDF step, reused from then on
			}
			for k, v := range f.toIdx {
				var got Value
				if f.guard != nil {
					got = row[f.toCols[k]]
				} else {
					got = f.fns[k](args)
				}
				if have.Contains(v) {
					if vals[v] != got {
						return have, false
					}
				} else {
					vals[v] = got
					have = have.Add(v)
					changed = true
				}
			}
		}
	}
	return have, true
}

// ExpandTuple expands a tuple over vars `have` to cover target, returning
// (extended values, ok). ok is false when the tuple is FD-inconsistent or
// dropped by a guard. It panics if target is not derivable (a query error,
// not a data condition).
func (e *Expander) ExpandTuple(vals []Value, have, target varset.Set) (varset.Set, bool) {
	have2, ok := e.Extend(vals, have)
	if !ok {
		return have2, false
	}
	if !have2.ContainsAll(target) {
		panic(fmt.Sprintf("expand: target %v not derivable from %v (closure %v)",
			target.Format(e.q.Names), have.Format(e.q.Names), have2.Format(e.q.Names)))
	}
	return have2, true
}

// ExpandRelation expands every tuple of r to the target variable set and
// returns the result (dropping FD-inconsistent tuples), with attributes in
// ascending variable order. Its rows go through a work.Meter of its own,
// without a limit: a join's rows are its executor's work, charged there.
//
// Without known sets it runs the dynamic Extend, which assumes nothing about
// r, and returns the rows sorted and deduplicated. Given the sets r's rows
// are already FD-consistent on — for a join T(A) ⋈ T(B) of an executor's own
// tables, vars T(A) and vars T(B) — it runs the compiled Program, which fires
// only the FDs no known set settles, and keeps r's row order: order is the
// caller's business (a union or the final sort establishes it once), and a
// duplicate-free r whose variables target contains stays duplicate-free.
func (e *Expander) ExpandRelation(ctx context.Context, r *rel.Relation, target varset.Set, known ...varset.Set) (*rel.Relation, error) {
	attrs := target.Members()
	out := rel.New(r.Name+"+", attrs...)
	out.Grow(r.Len())
	vals := make([]Value, e.q.K)
	nt := make(rel.Tuple, len(attrs))
	rVars := r.VarSet()
	var prog *Program
	if len(known) > 0 {
		prog = e.Program(rVars, target, known...)
	}
	e.rows = work.Meter{}
	for ri := 0; ri < r.Len(); ri++ {
		if err := e.rows.Check(ctx, ri); err != nil {
			return nil, err
		}
		t := r.Row(ri)
		for i, v := range r.Attrs {
			vals[v] = t[i]
		}
		if prog != nil {
			if !e.Run(prog, vals) {
				continue
			}
		} else if _, ok := e.ExpandTuple(vals, rVars, target); !ok {
			continue
		}
		for i, v := range attrs {
			nt[i] = vals[v]
		}
		out.AddTuple(nt)
	}
	if prog == nil {
		out.SortDedup()
	}
	return out, nil
}

// ExpandRelationInto is ExpandRelation streaming into a sink: the expanded
// relation is built and sorted (expansion output order is inherently
// unordered, so it must buffer), then flushed row by row, stopping early
// when the sink does. It reports whether the sink accepted every row.
func (e *Expander) ExpandRelationInto(ctx context.Context, r *rel.Relation, target varset.Set, sink rel.Sink) (bool, error) {
	out, err := e.ExpandRelation(ctx, r, target)
	if err != nil {
		return false, err
	}
	return rel.Stream(out, sink), nil
}
