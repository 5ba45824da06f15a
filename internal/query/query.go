// Package query represents full conjunctive queries with functional
// dependencies and optional degree bounds (Sec. 2 and 5.3 of the paper),
// bundling the schema, the FD set, and the database instance, and exposing
// the lattice representation (Sec. 3.1). A shape also keeps the planning
// artifacts derived from it: one plan record per relation-size vector, read
// and filled through typed Slots, one per artifact, each owned by the
// package that runs from it.
package query

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"repro/internal/fd"
	"repro/internal/lattice"
	"repro/internal/rel"
	"repro/internal/varset"
)

// DegreeBound is a prescribed maximum degree: for each tuple over X, at most
// MaxDegree distinct extensions to Y exist in the guard relation
// (hY|X ≤ log2 MaxDegree in the CLLP). X ⊂ Y must hold.
type DegreeBound struct {
	X, Y      varset.Set
	MaxDegree int
	Guard     int // index of the relation guarding the bound
}

// format renders the bound in the given variable names, as X->Y max N.
func (d DegreeBound) format(names []string) string {
	return fmt.Sprintf("%s->%s max %d", d.X.Format(names), d.Y.Format(names), d.MaxDegree)
}

// Q is a query with functional dependencies over variables 0..K-1, together
// with its database instance (one rel.Relation per input).
type Q struct {
	Names        []string // variable names, length K
	K            int
	FDs          *fd.Set
	Rels         []*rel.Relation
	DegreeBounds []DegreeBound

	state *qstate
	inst  *atomic.Value // the instance's prepared record; never shared between instances
}

// qstate boxes the lazily built lattice and the plan records behind one
// mutex. It is held by pointer so shallow copies of Q (WithFreshRels) share
// a single guarded instance: concurrent executions of the same query shape
// on different instances are race-free, and planning artifacts computed for
// one instance are visible to every other of the same relation sizes (see
// Slot).
type qstate struct {
	mu    sync.Mutex
	lat   *lattice.Lattice // guarded by mu
	plans map[string][]any // guarded by mu; the plan record per size vector, indexed by slot id
}

// New creates a query over the given variable names with an empty FD set.
func New(names ...string) *Q {
	return &Q{Names: names, K: len(names), FDs: fd.NewSet(len(names)), state: &qstate{}, inst: new(atomic.Value)}
}

// st returns the shared state, allocating it for hand-built Q values. The
// fallback is not synchronized: construct queries on one goroutine.
func (q *Q) st() *qstate {
	if q.state == nil {
		q.state = &qstate{}
	}
	return q.state
}

// AddRel registers an input relation and returns its index.
func (q *Q) AddRel(r *rel.Relation) int {
	u := varset.Universe(q.K)
	if !u.ContainsAll(r.VarSet()) {
		panic(fmt.Sprintf("query: relation %s mentions unknown variables", r.Name))
	}
	q.Rels = append(q.Rels, r)
	q.invalidate()
	return len(q.Rels) - 1
}

// invalidate drops the cached lattice and plan records and the prepared
// record. Called whenever the query shape changes (relations or FDs added).
func (q *Q) invalidate() {
	s := q.st()
	s.mu.Lock()
	s.lat = nil
	s.plans = nil
	s.mu.Unlock()
	q.inst = new(atomic.Value)
}

// Prepared returns the instance's prepared record (expand.For; opaque here
// because expand imports this package), storing what create returns when
// there is none yet. Racing first callers may each run create: one result
// wins, so create must be free of side effects. Like st, the fallback for
// hand-built Q values is not synchronized.
func (q *Q) Prepared(create func() any) any {
	if q.inst == nil {
		q.inst = new(atomic.Value)
	}
	if v := q.inst.Load(); v != nil {
		return v
	}
	q.inst.CompareAndSwap(nil, create())
	return q.inst.Load()
}

// Slot is one typed planning artifact of a query shape — the best chain, the
// LLP solution, a CSM plan. Every such artifact is a function of the FD
// lattice and the relation sizes alone (the sizes enter the paper's LPs only
// on the right-hand side), so a shape keeps one plan record per size vector
// and a Slot is one entry of it; the records go when the shape changes
// (AddRel, AddDegreeBound). Declare a slot once, as a package variable, with
// NewSlot; T should be a pointer type.
type Slot[T any] struct{ id int }

var slots atomic.Int32

// NewSlot allocates a slot in every plan record.
func NewSlot[T any]() Slot[T] { return Slot[T]{id: int(slots.Add(1) - 1)} }

// planRecordMax bounds the records a shape keeps: a long-lived shape serving
// many differently-sized instances would otherwise accumulate them forever. On overflow the store resets — entries are pure
// memoizations and rebuild on demand.
const planRecordMax = 256

// Get returns the slot's artifact for q at q's relation sizes, building it
// with build on a miss. build runs outside the lock (it may read other
// slots); when first callers race, the first store wins and every caller
// gets the stored value. A hit allocates nothing when build captures
// nothing. Safe for concurrent use.
func (s Slot[T]) Get(q *Q, build func(*Q) T) T {
	var buf [128]byte
	key := sizeKey(buf[:0], q.Rels)
	st := q.st()
	if v, ok := st.load(key, s.id); ok {
		return v.(T)
	}
	return st.store(key, s.id, build(q)).(T)
}

// sizeKey appends the relation sizes to buf as uvarints: self-delimiting, so
// distinct size vectors get distinct keys.
func sizeKey(buf []byte, rels []*rel.Relation) []byte {
	for _, r := range rels {
		buf = binary.AppendUvarint(buf, uint64(r.Len()))
	}
	return buf
}

// load returns entry id of the record for key.
func (s *qstate) load(key []byte, id int) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := s.plans[string(key)]
	if id < len(rec) && rec[id] != nil {
		return rec[id], true
	}
	return nil, false
}

// store sets entry id of the record for key to v, unless a racing build
// stored one first, and returns the entry.
func (s *qstate) store(key []byte, id int, v any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.plans[string(key)]
	if id < len(rec) && rec[id] != nil {
		return rec[id]
	}
	if !ok && len(s.plans) >= planRecordMax {
		s.plans = nil
	}
	if s.plans == nil {
		s.plans = make(map[string][]any, 2)
	}
	if id >= len(rec) {
		rec = append(rec, make([]any, id+1-len(rec))...)
	}
	rec[id] = v
	s.plans[string(key)] = rec
	return v
}

// AddDegreeBound registers a degree-bound constraint.
func (q *Q) AddDegreeBound(x, y varset.Set, maxDegree, guard int) {
	if !y.ContainsAll(x) || x == y {
		panic("query: degree bound needs X ⊂ Y")
	}
	q.DegreeBounds = append(q.DegreeBounds, DegreeBound{X: x, Y: y, MaxDegree: maxDegree, Guard: guard})
	q.invalidate()
}

// Var returns the variable index of a name, or -1.
func (q *Q) Var(name string) int {
	for i, n := range q.Names {
		if n == name {
			return i
		}
	}
	return -1
}

// Vars builds a varset from variable names; it panics on unknown names.
func (q *Q) Vars(names ...string) varset.Set {
	var s varset.Set
	for _, n := range names {
		v := q.Var(n)
		if v < 0 {
			panic(fmt.Sprintf("query: unknown variable %q", n))
		}
		s = s.Add(v)
	}
	return s
}

// AllVars returns the query's full variable set.
func (q *Q) AllVars() varset.Set { return varset.Universe(q.K) }

// Lattice returns (building and caching on first use) the lattice of closed
// sets of the query's FDs. Safe for concurrent use.
func (q *Q) Lattice() *lattice.Lattice {
	s := q.st()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lat == nil {
		s.lat = lattice.New(q.K, q.FDs.Closure)
	}
	return s.lat
}

// InputElems returns the lattice indices of the closures of the inputs'
// variable sets (the set R of the lattice presentation (L, R)). Duplicate
// lattice elements are preserved positionally (one entry per relation).
func (q *Q) InputElems() []int {
	l := q.Lattice()
	out := make([]int, len(q.Rels))
	for j, r := range q.Rels {
		out[j] = l.IndexOfClosure(r.VarSet())
	}
	return out
}

// LogSizes returns n_j = log2 |R_j| per relation, as exact rationals
// converted from float64 (empty relations get 0).
func (q *Q) LogSizes() []*big.Rat {
	out := make([]*big.Rat, len(q.Rels))
	for j, r := range q.Rels {
		out[j] = LogRat(r.Len())
	}
	return out
}

// LogRat converts log2(n) to a big.Rat (0 for n ≤ 1).
func LogRat(n int) *big.Rat {
	if n <= 1 {
		return new(big.Rat)
	}
	r := new(big.Rat).SetFloat64(math.Log2(float64(n)))
	if r == nil {
		panic("query: log size not representable")
	}
	return r
}

// TotalSize returns N = Σ_j |R_j|.
func (q *Q) TotalSize() int {
	n := 0
	for _, r := range q.Rels {
		n += r.Len()
	}
	return n
}

// CoveredVars returns the variables appearing in some input relation.
// Variables outside this set must be reachable through FD expansion.
func (q *Q) CoveredVars() varset.Set {
	var s varset.Set
	for _, r := range q.Rels {
		s = s.Union(r.VarSet())
	}
	return s
}

// CheckComputable verifies that expansion can compute every variable: each
// unguarded FD carries a UDF for every variable it determines (a guarded one
// reads them off its guard), and every variable is covered by an input
// relation or in the FD closure of the covered ones. With both holding,
// q.FDs.Closure is exactly what expansion derives. It is the shape-level
// half of Validate, cheap enough to run per Prepare.
func (q *Q) CheckComputable() error {
	for _, f := range q.FDs.FDs {
		if f.Guarded() {
			continue
		}
		for _, v := range f.To.Members() {
			if f.Fns[v] == nil {
				return fmt.Errorf("query: unguarded FD %s has no function for %s: guard it by a relation holding %s, or compute it with a UDF",
					f.Format(q.Names), q.Names[v], f.From.Union(f.To).Format(q.Names))
			}
		}
	}
	cov := q.CoveredVars()
	if q.FDs.Closure(cov) != q.AllVars() {
		return fmt.Errorf("query: variables %v are neither covered nor derivable",
			q.AllVars().Diff(q.FDs.Closure(cov)).Format(q.Names))
	}
	return nil
}

// Validate checks well-formedness against the instance: CheckComputable's
// shape rules, guarded FDs point at relations that contain their variables
// and whose instances satisfy them, and degree bounds hold on their guards.
func (q *Q) Validate() error {
	if err := q.CheckComputable(); err != nil {
		return err
	}
	for _, f := range q.FDs.FDs {
		if !f.Guarded() {
			continue
		}
		if f.Guard >= len(q.Rels) {
			return fmt.Errorf("query: FD %s guarded by missing relation %d", f.Format(q.Names), f.Guard)
		}
		g := q.Rels[f.Guard]
		if !g.VarSet().ContainsAll(f.From.Union(f.To)) {
			return fmt.Errorf("query: FD %s not contained in guard %s", f.Format(q.Names), g.Name)
		}
		if err := checkFDHolds(g, f, q.Names); err != nil {
			return err
		}
	}
	for _, d := range q.DegreeBounds {
		if d.Guard < 0 || d.Guard >= len(q.Rels) {
			return fmt.Errorf("query: degree bound %s has invalid guard %d", d.format(q.Names), d.Guard)
		}
		g := q.Rels[d.Guard]
		if !g.VarSet().ContainsAll(d.Y) {
			return fmt.Errorf("query: degree bound %s not contained in guard %s", d.format(q.Names), g.Name)
		}
		ix := g.IndexOn(append(d.X.Members(), d.Y.Diff(d.X).Members()...)...)
		if got := ix.MaxDegree(d.X.Len(), d.Y.Len()); got > d.MaxDegree {
			return fmt.Errorf("query: degree bound %s violated by %s (max degree %d)", d.format(q.Names), g.Name, got)
		}
	}
	return nil
}

// checkFDHolds verifies From→To on the guard's instance: a guarded FD is
// the degree bound From → From ∪ To of 1 (Sec. 5.3). The error names the FD
// in the query's variable names.
func checkFDHolds(g *rel.Relation, f fd.FD, names []string) error {
	to := f.To.Diff(f.From) // overlapping variables are trivially determined
	ix := g.IndexOn(append(f.From.Members(), to.Members()...)...)
	if ix.MaxDegree(f.From.Len(), f.From.Len()+to.Len()) > 1 {
		return fmt.Errorf("query: relation %s violates FD %s", g.Name, f.Format(names))
	}
	return nil
}

// WithFreshRels returns a shallow copy of q with the given relations
// substituted (same schema positions); used to re-run a query shape on a
// different instance. The copy shares q's lattice and plan records (both are
// mutex-guarded), so preparing a shape once amortizes planning across
// instances; what is derived from the relations themselves (the prepared
// record) starts empty.
func (q *Q) WithFreshRels(rels []*rel.Relation) *Q {
	if len(rels) != len(q.Rels) {
		panic("query: relation count mismatch")
	}
	c := *q
	c.state = q.st()
	c.inst = new(atomic.Value)
	c.Rels = rels
	return &c
}
