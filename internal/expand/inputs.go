package expand

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/fd"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

// Inputs is the prepared-inputs record of one query instance: everything the
// FD executors derive from the bound relations alone, kept as long as the
// instance (DESIGN.md, "What lives per shape, per instance and per run", has
// the rules and the memory bound). Entries are built on first request under
// mu — released by defer, the entry stored last — so a UDF panic or a
// cancelled context leaves the entry absent, and concurrent first runs build
// each entry once. A UDF thus runs under mu: it must not re-enter the instance.
type Inputs struct {
	fds []fdTable // read-only

	mu       sync.Mutex
	sealed   map[sealedKey]*rel.Relation // guarded by mu; Π_vars(R_input⁺), sorted, never mutated
	owner    map[*rel.Relation]int       // guarded by mu; sealed relation → its input
	classes  map[classKey][]DegreeClass  // guarded by mu
	programs []*Program                  // guarded by mu; compiled expansions, keyed by (have, known)
	builds   atomic.Int64                // entries built so far

	// verify, when set (by tests, before any run), sees every Program run.
	verify func(p *Program, vals []Value)
}

// sealedKey names Π_vars(R_input⁺): R_input⁺ itself when vars is its closure.
type sealedKey struct {
	input int
	vars  varset.Set
}

// classKey names the degree-class partition of sealed relation t on z.
type classKey struct {
	t *rel.Relation
	z varset.Set
}

// For returns the instance's record, created (FD tables only) on first use.
func For(q *query.Q) *Inputs {
	return q.Prepared(func() any {
		return &Inputs{fds: fdTables(q),
			sealed:  map[sealedKey]*rel.Relation{},
			owner:   map[*rel.Relation]int{},
			classes: map[classKey][]DegreeClass{}}
	}).(*Inputs)
}

// Builds reports how many entries the record has built so far; a warm run
// leaves it unchanged.
func (in *Inputs) Builds() int { return int(in.builds.Load()) }

// fdTables builds the per-FD lookup tables. The guard lookups are cached on
// the guard relations, so instances that share a relation share them.
func fdTables(q *query.Q) []fdTable {
	fds := make([]fdTable, len(q.FDs.FDs))
	for i, f := range q.FDs.FDs {
		t := fdTable{from: f.From, fromIdx: f.From.Members(), toIdx: f.To.Members()}
		if f.Guarded() {
			g := q.Rels[f.Guard]
			t.guard = g.LookupOn(t.fromIdx...)
			t.toCols = make([]int, len(t.toIdx))
			for k, v := range t.toIdx {
				t.toCols[k] = g.Col(v)
			}
		} else {
			t.fns = make([]fd.UDF, len(t.toIdx))
			for k, v := range t.toIdx {
				t.fns[k] = f.Fns[v]
			}
		}
		fds[i] = t
	}
	return fds
}

// publishLocked stores a finished sealed relation.
func (in *Inputs) publishLocked(key sealedKey, r *rel.Relation) {
	in.sealed[key], in.owner[r] = r, key.input
	in.builds.Add(1)
}

// Closed returns R_j⁺, input j expanded to the closure of its attributes.
// The first request builds it: O(|R_j|) UDF calls and lookups, cancellable.
func (e *Expander) Closed(ctx context.Context, j int) (*rel.Relation, error) {
	in := e.in
	in.mu.Lock()
	defer in.mu.Unlock()
	r := e.q.Rels[j]
	key := sealedKey{j, e.q.FDs.Closure(r.VarSet())}
	if t := in.sealed[key]; t != nil {
		return t, nil
	}
	t, err := e.ExpandRelation(ctx, r, key.vars)
	if err != nil {
		return nil, err
	}
	in.publishLocked(key, t)
	return t, nil
}

// Project returns Π_x(t) in ascending variable order, duplicates removed.
// When t is a sealed relation — an R_j⁺ or a projection of one — so is the
// result, with the indexes built on it; any other t is projected afresh.
func (e *Expander) Project(t *rel.Relation, x varset.Set) *rel.Relation {
	in := e.in
	in.mu.Lock()
	j, ok := in.owner[t]
	if !ok {
		in.mu.Unlock()
		return t.Project(x)
	}
	defer in.mu.Unlock()
	key := sealedKey{j, t.VarSet().Intersect(x)}
	if p := in.sealed[key]; p != nil {
		return p
	}
	p := t.Project(x)
	in.publishLocked(key, p)
	return p
}

// DegreeClass is one degree class of a table conditioned on Z.
type DegreeClass struct {
	Table  *rel.Relation
	MaxDeg int
}

// DegreeClasses partitions t by the power-of-two degree class of its Z-value
// (Lemma 5.35): class j holds the rows whose Z-value has degree in [2^j,
// 2^{j+1}); empty Z gives one class. A sealed relation's partition is kept.
func (e *Expander) DegreeClasses(t *rel.Relation, z varset.Set) []DegreeClass {
	in := e.in
	in.mu.Lock()
	if _, ok := in.owner[t]; !ok {
		in.mu.Unlock()
		return degreeClasses(t, z)
	}
	defer in.mu.Unlock()
	if cs, ok := in.classes[classKey{t, z}]; ok {
		return cs
	}
	cs := degreeClasses(t, z)
	in.classes[classKey{t, z}] = cs
	in.builds.Add(1)
	return cs
}

// degreeClasses computes the partition. Classes are dense small integers (at
// most log2 |t| + 1 of them), so it is two flat slices indexed by class,
// filled in class order — no map, and a deterministic class order.
func degreeClasses(t *rel.Relation, zVars varset.Set) []DegreeClass {
	if zVars.IsEmpty() || t.Len() == 0 {
		return []DegreeClass{{Table: t, MaxDeg: max(1, t.Len())}}
	}
	// A row's degree is how many rows its Z-value's key lookup counts.
	runs := t.LookupOn(zVars.Members()...)
	zCols := make([]int, 0, zVars.Len())
	for _, v := range zVars.Members() {
		zCols = append(zCols, t.Col(v))
	}
	nclass := bits.Len(uint(t.Len()))
	byClass := make([]*rel.Relation, nclass)
	maxDeg := make([]int, nclass)
	for ri := 0; ri < t.Len(); ri++ {
		row := t.Row(ri)
		lo, hi := runs.Run(row, zCols)
		deg := hi - lo
		cls := bits.Len(uint(deg)) - 1 // ⌊log2 deg⌋; deg ≥ 1 (row ri matches)
		b := byClass[cls]
		if b == nil {
			b = rel.New(t.Name, t.Attrs...)
			byClass[cls] = b
		}
		b.AddTuple(row)
		maxDeg[cls] = max(maxDeg[cls], deg)
	}
	out := make([]DegreeClass, 0, len(byClass))
	for cls, b := range byClass {
		if b != nil {
			out = append(out, DegreeClass{Table: b, MaxDeg: maxDeg[cls]})
		}
	}
	return out
}
