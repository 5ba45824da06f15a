package expand

import (
	"fmt"
	"slices"

	"repro/internal/fd"
	"repro/internal/varset"
)

// Program is Extend compiled for every tuple of one kind: bound on the
// variable set have, and already FD-consistent on each of the sets known
// (each a subset of have). Which FDs fire, in which order, and which of
// their To-variables are derived and which compared depends on variable sets
// only, so the fixpoint is simulated once, at compile time, and a run is a
// straight line of lookups. An FD whose variables all lie inside one known
// set is left out: it could only repeat a check the tuple has passed.
type Program struct {
	have  varset.Set
	known []varset.Set
	bound varset.Set // the variables bound after a successful run
	steps []step
}

// step is one FD firing: a guard lookup or the UDF calls, then its outs.
type step struct {
	fd   *fdTable
	outs []out
}

// out is one To-variable of a step: where its value comes from, and whether
// the step binds the variable or compares the value with the bound one.
type out struct {
	v      int
	col    int    // guarded: the guard row's column
	fn     fd.UDF // unguarded: the function
	derive bool
}

// Program returns the compiled expansion of tuples bound on have and
// FD-consistent on each known set — "consistent on X" meaning the tuple's
// X-part passes Extend started from X — to at least target; it panics like
// ExpandTuple when target is not derivable. Programs depend on the FD tables
// alone and are kept in the instance's record: a warm run compiles none.
func (e *Expander) Program(have, target varset.Set, known ...varset.Set) *Program {
	in := e.in
	in.mu.Lock()
	defer in.mu.Unlock()
	binds := func(p *Program) *Program {
		if !p.bound.ContainsAll(target) {
			panic(fmt.Sprintf("expand: target %v not derivable from %v (closure %v)",
				target.Format(e.q.Names), have.Format(e.q.Names), p.bound.Format(e.q.Names)))
		}
		return p
	}
	for _, p := range in.programs {
		if p.have == have && slices.Equal(p.known, known) {
			return binds(p)
		}
	}
	p := binds(compile(in.fds, have, known)) // a panic publishes nothing
	in.programs = append(in.programs, p)
	in.builds.Add(1)
	return p
}

// compile simulates Extend's fixpoint on variable sets, recording every
// firing that is not settled by a known set.
func compile(fds []fdTable, have varset.Set, known []varset.Set) *Program {
	for _, k := range known {
		if !have.ContainsAll(k) {
			panic(fmt.Sprintf("expand: known set %v is not bound (have %v)", k, have))
		}
	}
	p := &Program{have: have, known: slices.Clone(known)}
	settled := make([]bool, len(fds))
	for changed := true; changed; {
		changed = false
		for i := range fds {
			f := &fds[i]
			if settled[i] || !have.ContainsAll(f.from) {
				continue
			}
			settled[i] = true
			touched := f.from
			var outs []out
			for k, v := range f.toIdx {
				o := out{v: v}
				if f.guard != nil {
					o.col = f.toCols[k]
				} else {
					o.fn = f.fns[k]
				}
				if !have.Contains(v) {
					o.derive = true
					have = have.Add(v)
					changed = true
				}
				touched = touched.Add(v)
				outs = append(outs, o)
			}
			inside := func(k varset.Set) bool { return k.ContainsAll(touched) }
			if slices.ContainsFunc(known, inside) {
				continue
			}
			p.steps = append(p.steps, step{fd: f, outs: outs})
		}
	}
	p.bound = have
	return p
}

// Run applies p to the partial tuple vals (indexed by variable id), which
// must be bound and consistent as p was compiled for: it binds the derived
// variables and reports false if the tuple is inconsistent with some FD.
func (e *Expander) Run(p *Program, vals []Value) bool {
	if e.in.verify != nil {
		e.in.verify(p, vals)
	}
	for i := range p.steps {
		s := &p.steps[i]
		f := s.fd
		if f.guard != nil {
			row, ok := f.guard.Find(vals, f.fromIdx)
			if !ok {
				return false
			}
			for _, o := range s.outs {
				if o.derive {
					vals[o.v] = row[o.col]
				} else if vals[o.v] != row[o.col] {
					return false
				}
			}
			continue
		}
		args := e.argBuf[:0]
		for _, v := range f.fromIdx {
			args = append(args, vals[v])
		}
		e.argBuf = args
		for _, o := range s.outs {
			if got := o.fn(args); o.derive {
				vals[o.v] = got
			} else if vals[o.v] != got {
				return false
			}
		}
	}
	return true
}
