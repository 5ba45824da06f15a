package fdq

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Q is a query description under construction: the variables, the catalog
// relations with their variable bindings, the functional dependencies and
// degree bounds, plus per-execution options (limit, algorithm, workers).
// Build one with Query and the fluent methods; a Q is cheap, carries no
// data, and is not safe for concurrent mutation (resolve it into
// executions from as many goroutines as you like once built).
//
// Construction errors (unknown variables, malformed specs) are deferred:
// the first one is remembered and reported by whichever Session call
// consumes the query, so call chains stay fluent.
type Q struct {
	vars    []string
	rels    []relSpec
	fds     []fdSpec
	degs    []degSpec
	limit   int
	alg     string
	workers int
	err     error
}

type relSpec struct {
	name string
	vars []string
}

type fdSpec struct {
	guard    string // "" iff udf != nil
	from, to []string
	udfName  string // non-empty iff udf != nil
	udf      func(args []Value) Value
}

type degSpec struct {
	guard string
	x, y  []string
	max   int
}

// Query starts a new query description.
func Query() *Q { return &Q{} }

func (q *Q) fail(format string, args ...any) *Q {
	if q.err == nil {
		q.err = fmt.Errorf("fdq: "+format, args...)
	}
	return q
}

// Vars declares the query variables, in order. The order fixes the output
// column order. Call once, before Rel/FD.
func (q *Q) Vars(names ...string) *Q {
	if q.vars != nil {
		return q.fail("Vars called twice")
	}
	if len(names) == 0 {
		return q.fail("Vars needs at least one variable")
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" {
			return q.fail("empty variable name")
		}
		if seen[n] {
			return q.fail("duplicate variable %q", n)
		}
		seen[n] = true
	}
	q.vars = append([]string(nil), names...)
	return q
}

// Rel adds a query atom: the catalog relation name bound positionally to
// the given variables (one per column). The same catalog relation may
// appear more than once with different variables.
func (q *Q) Rel(name string, vars ...string) *Q {
	if name == "" {
		return q.fail("Rel needs a relation name")
	}
	seen := map[string]bool{}
	for _, v := range vars {
		if q.varIndex(v) < 0 {
			return q.fail("relation %s binds unknown variable %q", name, v)
		}
		if seen[v] {
			return q.fail("relation %s binds variable %q twice", name, v)
		}
		seen[v] = true
	}
	q.rels = append(q.rels, relSpec{name: name, vars: append([]string(nil), vars...)})
	return q
}

// FD declares a guarded functional dependency from → to (each a space- or
// comma-separated variable list): guard names a Rel whose instance enforces
// — and witnesses — the dependency. A dependency no relation guards is
// declared with UDF, which computes its targets.
func (q *Q) FD(guard, from, to string) *Q {
	if guard == "" {
		return q.fail("FD %s -> %s has no guard: name a relation holding its variables, or compute it with UDF", from, to)
	}
	f, t, ok := q.fdSides(from, to, "FD")
	if !ok {
		return q
	}
	q.fds = append(q.fds, fdSpec{guard: guard, from: f, to: t})
	return q
}

// UDF declares an unguarded functional dependency from → to computed by
// fn, which receives the values of the from-variables in declaration
// order. The name identifies the function in the query's signature — two
// queries using different functions under the same name would wrongly
// share a cached prepared shape, so keep names unique per function.
func (q *Q) UDF(name, from, to string, fn func(args []Value) Value) *Q {
	if name == "" || fn == nil {
		return q.fail("UDF needs a name and a function")
	}
	f, t, ok := q.fdSides(from, to, "UDF")
	if !ok {
		return q
	}
	q.fds = append(q.fds, fdSpec{from: f, to: t, udfName: name, udf: fn})
	return q
}

// fdSides parses and validates the two variable lists of an FD/UDF spec.
func (q *Q) fdSides(from, to, what string) (f, t []string, ok bool) {
	f = splitVars(from)
	t = splitVars(to)
	if len(f) == 0 || len(t) == 0 {
		q.fail("%s needs non-empty from and to variable lists", what)
		return nil, nil, false
	}
	for _, v := range append(append([]string(nil), f...), t...) {
		if q.varIndex(v) < 0 {
			q.fail("%s mentions unknown variable %q", what, v)
			return nil, nil, false
		}
	}
	return f, t, true
}

// Degree declares a prescribed degree bound: every binding of the
// x-variables extends to at most max bindings of the y-variables (x ⊂ y)
// within the guard relation.
func (q *Q) Degree(guard, x, y string, max int) *Q {
	xs, ys := splitVars(x), splitVars(y)
	if guard == "" || len(xs) == 0 || len(ys) == 0 || max < 1 {
		return q.fail("Degree needs a guard, variable lists, and max ≥ 1")
	}
	for _, v := range append(append([]string(nil), xs...), ys...) {
		if q.varIndex(v) < 0 {
			return q.fail("Degree mentions unknown variable %q", v)
		}
	}
	q.degs = append(q.degs, degSpec{guard: guard, x: xs, y: ys, max: max})
	return q
}

// Limit caps the result at the first n rows of the (deterministically
// ordered) answer; execution stops the moment the n-th row is delivered.
// n ≤ 0 removes the cap.
func (q *Q) Limit(n int) *Q {
	if n < 0 {
		n = 0
	}
	q.limit = n
	return q
}

// Alg forces the execution algorithm: one of "auto" (default — the
// cost-based planner decides), "chain", "sm", "csma", "generic", "binary".
func (q *Q) Alg(name string) *Q {
	q.alg = name
	return q
}

// Workers sets the worker-pool size for parallel execution (0 = one per
// CPU, 1 = sequential).
func (q *Q) Workers(n int) *Q {
	q.workers = n
	return q
}

// Err returns the first construction error, if any.
func (q *Q) Err() error { return q.err }

func (q *Q) varIndex(name string) int {
	for i, n := range q.vars {
		if n == name {
			return i
		}
	}
	return -1
}

// splitVars splits a space- or comma-separated variable list.
func splitVars(s string) []string {
	return strings.Fields(strings.ReplaceAll(s, ",", " "))
}

// signature canonically encodes the query *shape* — variables, atoms, FDs,
// degree bounds — and is the session's prepared-cache key. Execution
// options (limit, algorithm, workers) and the catalog contents are
// deliberately excluded: they vary per run without changing the shape
// analysis.
func (q *Q) signature() string {
	n := 2 + listLen(q.vars)
	for _, r := range q.rels {
		n += len(";r=()") + len(r.name) + listLen(r.vars)
	}
	for _, f := range q.fds {
		n += len(";udf=:>") + len(f.udfName) + len(f.guard) + listLen(f.from) + listLen(f.to)
	}
	for _, d := range q.degs {
		n += len(";deg=:>:") + len(d.guard) + listLen(d.x) + listLen(d.y) + 20
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("v=")
	writeList(&b, q.vars)
	for _, r := range q.rels {
		b.WriteString(";r=")
		b.WriteString(r.name)
		b.WriteByte('(')
		writeList(&b, r.vars)
		b.WriteByte(')')
	}
	for _, f := range q.fds {
		if f.udf != nil {
			b.WriteString(";udf=")
			b.WriteString(f.udfName)
		} else {
			b.WriteString(";fd=")
			b.WriteString(f.guard)
		}
		b.WriteByte(':')
		writeList(&b, f.from)
		b.WriteByte('>')
		writeList(&b, f.to)
	}
	for _, d := range q.degs {
		b.WriteString(";deg=")
		b.WriteString(d.guard)
		b.WriteByte(':')
		writeList(&b, d.x)
		b.WriteByte('>')
		writeList(&b, d.y)
		b.WriteByte(':')
		var num [20]byte
		b.Write(strconv.AppendInt(num[:0], int64(d.max), 10))
	}
	return b.String()
}

// listLen is the length of names joined by commas.
func listLen(names []string) int {
	n := max(len(names)-1, 0)
	for _, s := range names {
		n += len(s)
	}
	return n
}

// writeList writes names joined by commas.
func writeList(b *strings.Builder, names []string) {
	for i, s := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(s)
	}
}

// relIndex returns the position of the first atom whose relation name
// matches, or -1. FD and degree guards reference atoms by this name.
func (q *Q) relIndex(name string) int {
	for j, r := range q.rels {
		if r.name == name {
			return j
		}
	}
	return -1
}

// varsetOf maps validated variable names to a varset.
func (q *Q) varsetOf(names []string) varset.Set {
	s := varset.Empty
	for _, n := range names {
		s = s.Add(q.varIndex(n))
	}
	return s
}

// buildRels resolves the query's atoms against a snapshot, returning one
// zero-copy relation view per atom.
func (q *Q) buildRels(snap *snapshot) ([]*rel.Relation, error) {
	out := make([]*rel.Relation, len(q.rels))
	for j, rs := range q.rels {
		sr, ok := snap.rels[rs.name]
		if !ok {
			return nil, fmt.Errorf("fdq: relation %q not in catalog", rs.name)
		}
		if len(rs.vars) != len(sr.cols) {
			return nil, fmt.Errorf("fdq: relation %q has %d columns, query binds %d variables",
				rs.name, len(sr.cols), len(rs.vars))
		}
		attrs := make([]int, len(rs.vars))
		for i, v := range rs.vars {
			attrs[i] = q.varIndex(v)
		}
		out[j] = sr.master.WithAttrs(rs.name, attrs...)
	}
	return out, nil
}

// build resolves the full query against a snapshot into the internal
// representation.
func (q *Q) build(snap *snapshot) (*query.Q, error) {
	if q.err != nil {
		return nil, q.err
	}
	if len(q.vars) == 0 {
		return nil, fmt.Errorf("fdq: query has no variables (call Vars first)")
	}
	if len(q.rels) == 0 {
		return nil, fmt.Errorf("fdq: query has no relations")
	}
	rels, err := q.buildRels(snap)
	if err != nil {
		return nil, err
	}
	qq := query.New(q.vars...)
	for _, r := range rels {
		qq.AddRel(r)
	}
	for _, f := range q.fds {
		from, to := q.varsetOf(f.from), q.varsetOf(f.to)
		guard := -1
		var fns map[int]fd.UDF
		if f.udf != nil {
			fns = map[int]fd.UDF{}
			for _, v := range to.Members() {
				fns[v] = fd.UDF(f.udf)
			}
		} else if guard = q.relIndex(f.guard); guard < 0 {
			return nil, fmt.Errorf("fdq: FD guard %q is not a query relation", f.guard)
		}
		qq.FDs.Add(from, to, guard, fns)
	}
	for _, d := range q.degs {
		guard := q.relIndex(d.guard)
		if guard < 0 {
			return nil, fmt.Errorf("fdq: degree-bound guard %q is not a query relation", d.guard)
		}
		x, y := q.varsetOf(d.x), q.varsetOf(d.y)
		if !y.ContainsAll(x) || x == y {
			return nil, fmt.Errorf("fdq: degree bound needs x ⊂ y (got %s vs %s)",
				strings.Join(d.x, ","), strings.Join(d.y, ","))
		}
		qq.AddDegreeBound(x, y, d.max, guard)
	}
	return qq, nil
}
