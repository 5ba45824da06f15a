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
// GenericJoinInto and BinaryPlanInto are safe to call concurrently on frozen
// inputs: all working state is per-call, and input relations are only read
// (their index caches are mutex-guarded).
//
// Execution is sink-based (see rel.Sink): GenericJoinInto and
// BinaryPlanInto emit rows into a sink in the final output order and stop
// the moment the sink does. Generic join with the identity variable order —
// the default for FD-light queries — streams natively during the trie
// descent, so a LIMIT-1 consumer pays only for the first successful
// descent; other orders (and the binary plan) buffer, sort, and flush. The
// descent is compiled per run from the shape and the order (which relations
// meet at which trie level, which FDs fire after a binding, which levels a
// derived value binds), and hands its last level to a rel.RunSink — a bare
// collector or counter — one run of rows per prefix instead of row by row.
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
	"repro/internal/work"
)

// Value aliases the relational value type.
type Value = rel.Value

// errStop is the internal signal that the sink stopped the producer; it
// never escapes the package.
var errStop = errors.New("wcoj: sink stopped execution")

// Stats reports the work done by an execution, to make intermediate-size
// blowups observable in experiments.
type Stats struct {
	Extensions int  // candidate tuples materialized/extended
	Lookups    int  // membership probes
	Stopped    bool // the sink stopped the descent before it finished
}

// Work is the run's counted work, the units its work.Meter is charged in:
// Extensions + Lookups.
func (s *Stats) Work() int { return s.Extensions + s.Lookups }

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
// buffers, sorts, deduplicates, and then streams. The descent charges its
// Stats.Work to a work.Meter on every step and every emitted run.
//
// Each relation is a trie (rel.TrieIndex) in the global order restricted to
// its attributes; a variable's step intersects the bound nodes' child runs,
// seeded by the smallest and galloping through the others. What meets and
// fires at each level is compiled once per run (compile).
func GenericJoinInto(ctx context.Context, q *query.Q, order []int, sink rel.Sink) (*Stats, error) {
	if len(order) != q.K {
		return &Stats{}, fmt.Errorf("wcoj: order must list all %d variables", q.K)
	}
	out := sink
	var buf *rel.CollectSink
	if !identityOrder(order) {
		buf = rel.NewCollect("Q", q.AllVars().Members()...)
		out = buf
	}
	x := &descent{ctx: ctx, sink: out, vals: make([]Value, q.K)}
	x.m.Start(ctx, faultinject.SiteTrieDescent)
	x.compile(q, order)
	err := x.descend(0)
	x.m.Stop(x.st.Work())
	if errors.Is(err, errStop) {
		x.st.Stopped = true // a consumer decision, not an error
	} else if err != nil {
		return &x.st, err
	}
	if buf != nil {
		buf.R.SortDedup()
		x.st.Stopped = !rel.Stream(buf.R, sink)
	}
	return &x.st, nil
}

// level is one iterating (or, in no relation, deriving) depth of the
// descent. A depth whose variable an FD bound earlier is not compiled at all:
// membership of a derived value is what the seeks check, footnote-1 style.
type level struct {
	v     int
	parts []part          // the relations containing v, in relation order; none: v must be derived
	prog  *expand.Program // the FDs binding v can fire; nil when there are none
	seeks []part          // the trie levels of FD-derived variables that binding v reaches, in relation then level order
	run   bool            // the deepest level, binding the last column, nothing fired after it
	err   error           // v is neither stored nor derivable: reported if the descent gets here
}

// part is one trie level of one relation. A relation's level for order[d] is
// the number of its attributes in order[:d], so it is bound at one depth only
// and its cell doubles as the galloping cursor while that depth iterates.
type part struct {
	trie *rel.TrieIndex
	lvl  int
	cell int // into descent.cells; the parent level's is cell-1
	v    int // the level's variable
}

// cell holds the node a relation's trie level is bound to, and the end of
// the child run that node was found in.
type cell struct{ node, end int32 }

// descent is one run of generic join: the compiled levels and the state they
// index. vals needs no save and restore: a level only reads the variables
// bound above it, which the loops above leave alone until it returns.
type descent struct {
	ctx    context.Context
	sink   rel.Sink
	runs   rel.RunSink      // sink, when it takes the last level as runs
	e      *expand.Expander // nil on an FD-free query
	levels []level
	vals   []Value // by variable id: the row being built
	cells  []cell  // one per (relation, trie level), a relation's consecutive
	run    []Value // survivors of a last-level intersection
	m      work.Meter
	st     Stats
}

// compile derives the levels from the shape and the order. The set of bound
// variables on entry to a depth is static: it starts empty, and after every
// binding it is closed under derivation (which FDs fire depends on variable
// sets only), so past the first level a tuple is FD-consistent on it and the
// program run after the next binding takes it as known.
func (x *descent) compile(q *query.Q, order []int) {
	tries := make([]*rel.TrieIndex, len(q.Rels))
	base := make([]int, len(q.Rels)+1) // relation j's cells start at base[j]
	for j, r := range q.Rels {
		prio := make([]int, 0, 8)
		for _, v := range order {
			if r.Col(v) >= 0 {
				prio = append(prio, v)
			}
		}
		tries[j] = r.IndexOn(prio...).Trie()
		base[j+1] = base[j] + r.Arity()
	}
	ncells := base[len(tries)]
	x.cells = make([]cell, ncells)
	x.levels = make([]level, 0, q.K)
	parts := make([]part, 0, ncells) // every trie level is bound once: iterated or sought
	depth := make([]int, len(tries)) // relation j's levels bound so far
	var fdVars varset.Set            // the variables some FD mentions
	for _, f := range q.FDs.FDs {
		fdVars = fdVars.Union(f.From).Union(f.To)
	}
	if !fdVars.IsEmpty() {
		x.e = expand.New(q)
	}
	bind := func(j int) { // relation j's next trie level joins the level being compiled
		t := tries[j]
		parts = append(parts, part{trie: t, lvl: depth[j], cell: base[j] + depth[j], v: t.Attr(depth[j])})
		depth[j]++
	}
	var bound varset.Set
	for d, v := range order {
		if bound.Contains(v) {
			continue
		}
		lv := level{v: v}
		known, at := bound, len(parts)
		for j, t := range tries {
			if depth[j] < t.Levels() && t.Attr(depth[j]) == v {
				bind(j)
			}
		}
		if lv.parts = parts[at:len(parts):len(parts)]; len(lv.parts) > 0 {
			bound = bound.Add(v)
		}
		// Past the first level bound was closed, so only an FD that mentions
		// v can fire or derive.
		if x.e != nil && (len(x.levels) == 0 || len(lv.parts) > 0 && fdVars.Contains(v)) {
			lv.prog = x.e.Program(bound, varset.Empty, known)
			bound = derivableFrom(q, bound)
		}
		// Every relation descends as far as its level order is bound: through
		// what was derived just now, or earlier and only now follows a bound level.
		at = len(parts)
		for j, t := range tries {
			for depth[j] < t.Levels() && bound.Contains(t.Attr(depth[j])) {
				bind(j)
			}
		}
		lv.seeks = parts[at:len(parts):len(parts)]
		if !bound.Contains(v) {
			lv.err = fmt.Errorf("wcoj: variable %s neither stored nor derivable at depth %d", q.Names[v], d)
		}
		x.levels = append(x.levels, lv)
	}
	if n := len(x.levels); n > 0 {
		last := &x.levels[n-1]
		last.run = last.v == q.K-1 && len(last.parts) > 0 && last.prog == nil && len(last.seeks) == 0
	}
	x.runs, _ = x.sink.(rel.RunSink)
}

// children returns the child run of the node p's parent level is bound to.
func (x *descent) children(p *part) (lo, hi int32) {
	if p.lvl == 0 {
		return p.trie.Root()
	}
	return p.trie.Children(p.lvl-1, x.cells[p.cell-1].node)
}

// tick charges the descent's work to its meter, which fires the descent's
// fault site and polls ctx on the first tick and every work.Interval units.
func (x *descent) tick() error {
	return x.m.Check(x.ctx, x.st.Work())
}

// descend binds the variables of levels[d:] in every consistent way below
// the current path and emits the completed rows, in depth-first order.
func (x *descent) descend(d int) error {
	if err := x.tick(); err != nil {
		return err
	}
	if d == len(x.levels) {
		if !x.sink.Push(x.vals) {
			return errStop
		}
		return nil
	}
	lv := &x.levels[d]
	if len(lv.parts) == 0 {
		return x.below(lv, d) // in no relation: whatever the FDs derive from nothing
	}
	// The relation with the smallest fanout seeds the candidates; the others
	// gallop after it from the start of their child runs.
	seed := &lv.parts[0]
	for i := range lv.parts {
		p := &lv.parts[i]
		lo, hi := x.children(p)
		x.cells[p.cell] = cell{lo, hi}
		if s := x.cells[seed.cell]; hi-lo < s.end-s.node {
			seed = p
		}
	}
	lo := x.cells[seed.cell].node
	cands := seed.trie.Vals(seed.lvl, lo, x.cells[seed.cell].end)
	asRun := lv.run && x.runs != nil
	if asRun && len(lv.parts) == 1 {
		x.st.Extensions += len(cands)
		return x.emitRun(cands)
	}
	run := x.run[:0]
cand:
	for i, val := range cands {
		x.st.Extensions++
		for j := range lv.parts {
			p := &lv.parts[j]
			if p == seed {
				continue
			}
			c := &x.cells[p.cell]
			x.st.Lookups++
			c.node = p.trie.SeekGE(p.lvl, c.node, c.end, val)
			if c.node == c.end || p.trie.Val(p.lvl, c.node) != val {
				continue cand
			}
		}
		if asRun {
			run = append(run, val)
			continue
		}
		x.cells[seed.cell].node = lo + int32(i)
		x.vals[lv.v] = val
		if err := x.below(lv, d); err != nil {
			return err
		}
	}
	if asRun {
		x.run = run
		return x.emitRun(run)
	}
	return nil
}

// below continues the descent once lv's variable is bound: FD propagation
// and consistency (LFTJ footnote-1 behaviour), the trie levels the derived
// values reach, then the levels below.
func (x *descent) below(lv *level, d int) error {
	if lv.prog != nil && !x.e.Run(lv.prog, x.vals) {
		return nil
	}
	if lv.err != nil {
		return lv.err
	}
	for i := range lv.seeks {
		p := &lv.seeks[i]
		lo, hi := x.children(p)
		x.st.Lookups++
		pos := p.trie.Seek(p.lvl, lo, hi, x.vals[p.v])
		if pos < 0 {
			return nil // some relation rules the derived value out
		}
		x.cells[p.cell].node = pos
	}
	return x.descend(d + 1)
}

// emitRun hands the rows vals[:K-1] × last to the run sink.
func (x *descent) emitRun(last []Value) error {
	if len(last) == 0 {
		return nil
	}
	if err := x.tick(); err != nil {
		return err
	}
	if !x.runs.PushRun(x.vals[:len(x.vals)-1], last) {
		return errStop
	}
	return nil
}

// BinaryPlanInto evaluates the query with a left-deep hash-join plan in the
// greedy relation order, expanding and FD-filtering at the end — the
// "traditional query plan" baseline of the introduction — and emits the
// result into sink. The greedy order starts from the smallest relation and
// repeatedly joins the smallest relation sharing a variable with the
// accumulated set, so connected join graphs never cross-product. Hash joins
// must materialize their intermediates, so what the sink buys is at the
// edges: the intermediate rows (Stats.Extensions) are charged to a
// work.Meter after every join (a cancelled query, or one past ctx's
// work.Limit, stops before the next — potentially quadratic — intermediate
// is built), and the final expand-and-filter pass streams the sorted
// result, stopping early when the sink does.
func BinaryPlanInto(ctx context.Context, q *query.Q, sink rel.Sink) (*Stats, error) {
	st := &Stats{}
	var m work.Meter
	m.Start(ctx, "")
	var acc *rel.Relation
	for _, j := range greedyOrder(q) {
		if acc == nil {
			acc = q.Rels[j].Clone()
		} else {
			acc = rel.Join(acc, q.Rels[j])
		}
		st.Extensions += acc.Len()
		if err := m.Check(ctx, st.Work()); err != nil {
			return st, err
		}
	}
	m.Stop(st.Work())
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
