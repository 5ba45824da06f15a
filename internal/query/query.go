// Package query represents full conjunctive queries with functional
// dependencies and optional degree bounds (Sec. 2 and 5.3 of the paper),
// bundling the schema, the FD set, and the database instance, and exposing
// the lattice representation (Sec. 3.1).
package query

import (
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

// qstate boxes the lazily built lattice and the plan cache behind one
// mutex. It is held by pointer so shallow copies of Q (WithFreshRels) share
// a single guarded instance: concurrent executions of the same query shape
// on different instances are race-free, and planning artifacts computed for
// one instance are visible to the others (cache keys fold in whatever the
// artifact depends on, e.g. relation sizes).
type qstate struct {
	mu    sync.Mutex
	lat   *lattice.Lattice // guarded by mu
	plans map[string]any   // guarded by mu
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

// invalidate drops the cached lattice and plan artifacts and the prepared
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

// PlanCache returns the memoized planning artifact stored under key.
// The cache is cleared when a relation is added; callers whose artifacts
// depend on instance sizes must fold those sizes into the key (see
// bounds.BestChainBound). Safe for concurrent use.
func (q *Q) PlanCache(key string) (any, bool) {
	s := q.st()
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.plans[key]
	return v, ok
}

// planCacheMax bounds the plan cache: keys fold in instance sizes, so a
// long-lived shape serving many differently-sized instances would otherwise
// accumulate entries forever. On overflow the cache resets — entries are
// pure memoizations and rebuild on demand.
const planCacheMax = 256

// SetPlanCache memoizes a planning artifact under key. Safe for concurrent
// use.
func (q *Q) SetPlanCache(key string, v any) {
	s := q.st()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.plans) >= planCacheMax {
		s.plans = nil
	}
	if s.plans == nil {
		s.plans = make(map[string]any, 2)
	}
	s.plans[key] = v
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

// CheckComputable verifies that every variable is covered by an input
// relation or derivable from covered variables by FD expansion — the
// shape-level half of Validate, cheap enough to run per Prepare.
func (q *Q) CheckComputable() error {
	cov := q.CoveredVars()
	if q.FDs.Closure(cov) != q.AllVars() {
		return fmt.Errorf("query: variables %v are neither covered nor derivable",
			q.AllVars().Diff(q.FDs.Closure(cov)).Format(q.Names))
	}
	return nil
}

// Validate checks structural well-formedness: every variable is covered by
// an input or derivable by expansion from covered variables, guarded FDs
// point at relations that contain their variables and whose instances
// satisfy them, and unguarded FDs that could be needed for expansion carry
// UDFs.
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
		if err := checkFDHolds(g, f); err != nil {
			return err
		}
	}
	for _, d := range q.DegreeBounds {
		if d.Guard < 0 || d.Guard >= len(q.Rels) {
			return fmt.Errorf("query: degree bound has invalid guard %d", d.Guard)
		}
		g := q.Rels[d.Guard]
		if !g.VarSet().ContainsAll(d.Y) {
			return fmt.Errorf("query: degree bound Y ⊄ guard %s", g.Name)
		}
		proj := g.Project(d.Y)
		pix := proj.IndexOn(d.X.Members()...)
		if got := pix.MaxDegree(d.X.Len()); got > d.MaxDegree {
			return fmt.Errorf("query: degree bound %d violated by %s (max degree %d)", d.MaxDegree, g.Name, got)
		}
	}
	return nil
}

// checkFDHolds verifies From→To on the guard's instance by scanning an
// index sorted with (From, To) as the leading priority: within a From-run
// the To block must be constant, so adjacent rows suffice and the check
// allocates nothing beyond the (cached) index itself.
func checkFDHolds(g *rel.Relation, f fd.FD) error {
	to := f.To.Diff(f.From) // overlapping variables are trivially determined
	nf, nt := f.From.Len(), to.Len()
	prio := append(f.From.Members(), to.Members()...)
	ix := g.IndexOn(prio...)
	for i := 1; i < ix.Len(); i++ {
		prev, cur := ix.Row(i-1), ix.Row(i)
		sameFrom := true
		for c := 0; c < nf; c++ {
			if prev[c] != cur[c] {
				sameFrom = false
				break
			}
		}
		if !sameFrom {
			continue
		}
		for c := nf; c < nf+nt; c++ {
			if prev[c] != cur[c] {
				return fmt.Errorf("query: relation %s violates FD %v->%v", g.Name, f.From, f.To)
			}
		}
	}
	return nil
}

// WithFreshRels returns a shallow copy of q with the given relations
// substituted (same schema positions); used to re-run a query shape on a
// different instance. The copy shares q's lattice and plan cache (both are
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
