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
// the moment the sink does. Generic join streams during the trie descent
// one group at a time: the rows that share their values on the order's
// identity prefix (order[:k] = 0, 1, …, k-1) come out of the descent
// together, groups ascending, so only the group in hand is buffered and
// sorted before it leaves, and a LIMIT-1 consumer pays for the first group.
// Under the identity order — the default for FD-light queries — every group
// is one row and nothing is buffered; under an order that does not start
// with variable 0 the prefix is empty and the one group is the whole answer
// (the binary plan materializes too). The descent is compiled per run from
// the shape and the order (which relations meet at which trie level, which
// FDs fire after a binding, which levels a derived value binds), runs as one
// loop over those levels, each keeping its own cursor, and hands its last
// level to a rel.RunSink — a bare collector or counter — one run of rows per
// prefix instead of row by row. Its work unit, a candidate or a probe, is
// the same whichever way the loop reads the trie.
package wcoj

import (
	"context"
	"errors"
	"fmt"
	"slices"

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

// GenericJoinInto evaluates the query with the generic worst-case-optimal
// join over the given global variable order, emitting result rows into sink
// (see rel.Sink for the ordering contract). Variables contained in no
// relation must be derivable via UDF FDs from earlier variables. Rows stream
// during the trie descent a group at a time (see descent.buffer): the sink
// sees the first group once the descent below its prefix binding finishes,
// and stopping the sink abandons the rest of the search. Under the identity
// order every group is one row and rows reach the sink unbuffered; under an
// order that does not start with variable 0 the one group is the whole
// answer. The descent charges its Stats.Work to a work.Meter on every step
// and every emitted run.
//
// Each relation is a trie (rel.TrieIndex) in the global order restricted to
// its attributes; a variable's step intersects the bound nodes' child runs,
// seeded by the smallest and galloping through the others. What meets and
// fires at each level is compiled once per run (compile).
func GenericJoinInto(ctx context.Context, q *query.Q, order []int, sink rel.Sink) (*Stats, error) {
	if len(order) != q.K {
		return &Stats{}, fmt.Errorf("wcoj: order must list all %d variables", q.K)
	}
	x := &descent{ctx: ctx, sink: sink, vals: make([]Value, q.K)}
	x.m.Start(ctx, faultinject.SiteTrieDescent)
	x.compile(q, order)
	x.buffer(q, order)
	err := x.join()
	x.m.Stop(x.st.Work())
	if errors.Is(err, errStop) {
		x.st.Stopped = true // a consumer decision, not an error
		err = nil
	}
	return &x.st, err
}

// buffer puts what the order needs between the descent and the caller's
// sink. The compiled levels that bind a variable of the order's identity
// prefix order[:k] = 0, 1, …, k-1 (k maximal) are the first g levels.
//
// Why the rows that share their prefix values leave the descent together,
// and groups in ascending order: a prefix variable is either iterated by its
// level in ascending trie order, or derived by an FD from variables bound
// before it — all of which lie in the prefix too. So two rows from different
// bindings of the first g levels first differ in the prefix, at an iterated
// variable, where the earlier binding has the smaller value. Within one
// binding the levels below run in an order of their own, so a group is
// buffered and sorted before it leaves, and the group mark after level g-1
// says when it is complete. Two leaves of the descent differ in the variable
// of the level where they part, so no row is emitted twice. When g is 0 (the
// order does not start with variable 0) the mark heads the descent and the
// whole answer is one group. When g is all the levels — the identity order,
// or every variable past the prefix is derived — each binding gives at most
// one row, and the descent emits in the final order as it goes, unmarked.
func (x *descent) buffer(q *query.Q, order []int) {
	k := 0
	for k < q.K && order[k] == k {
		k++
	}
	g := 0
	for g < len(x.levels) && x.levels[g].v < k {
		g++
	}
	if g < len(x.levels) {
		x.grp = &group{out: x.sink, w: q.K}
		x.sink = x.grp
		x.levels = slices.Insert(x.levels, g, level{group: true})
	}
	x.runs, _ = x.sink.(rel.RunSink)
}

// group holds the rows of one binding of the identity prefix (see buffer)
// until the levels below it finish, and then hands them to out. Its storage
// is kept from one group to the next, so flushing allocates only when a
// group outgrows every earlier one.
type group struct {
	out  rel.Sink // the caller's sink
	rows []Value  // flat, w values a row, in descent order
	perm []int32  // scratch: the rows' sorted order
	w    int
}

// Push buffers the row; it never stops the descent.
func (g *group) Push(t rel.Tuple) bool {
	g.rows = append(g.rows, t...)
	return true
}

// flush pushes the buffered rows into out in ascending order and empties
// the group; it fails with errStop if out stops.
func (g *group) flush() error {
	rows, w := g.rows, g.w
	g.rows = rows[:0]
	perm := g.perm[:0]
	for i := range int32(len(rows) / w) {
		perm = append(perm, i)
	}
	g.perm = perm
	if len(perm) > 1 {
		slices.SortFunc(perm, func(a, b int32) int {
			return slices.Compare(rows[int(a)*w:int(a)*w+w], rows[int(b)*w:int(b)*w+w])
		})
	}
	for _, i := range perm {
		at := int(i) * w
		if !g.out.Push(rows[at : at+w : at+w]) {
			return errStop
		}
	}
	return nil
}

// level is one iterating (or, in no relation, deriving) depth of the
// descent. A depth whose variable an FD bound earlier is not compiled at all:
// membership of a derived value is what the seeks check, footnote-1 style.
// A group mark binds nothing: descent.buffer puts it after the levels of the
// identity prefix, and the rows found below one visit of it are one group,
// flushed when the visit ends. seed, next and end are the level's cursor
// while it iterates: the part whose child run gives the candidates, and the
// next candidate and the run's end as offsets into that part's vals.
type level struct {
	v               int
	parts           []part          // the relations containing v, in relation order; none: v must be derived
	prog            *expand.Program // the FDs binding v can fire; nil when there are none
	seeks           []part          // the trie levels of FD-derived variables that binding v reaches, in relation then level order
	err             error           // v is neither stored nor derivable: reported if the descent gets here
	seed, next, end int32
	run             bool // the deepest level, binding the last column, nothing fired after it
	group           bool // the group mark
}

// part is one trie level of one relation. A relation's level for order[d] is
// the number of its attributes in order[:d], so it is bound at one depth only
// and its cell doubles as the galloping cursor while that depth iterates.
type part struct {
	vals  []Value // the trie level's node values
	start []int32 // the parent level's child offsets; nil at the root
	cell  int     // into descent.cells; the parent level's is cell-1
	v     int     // the level's variable
}

// cell holds the node a relation's trie level is bound to, and the end of
// the child run that node was found in.
type cell struct{ node, end int32 }

// descent is one run of generic join: the compiled levels and the state they
// index. vals needs no save and restore: a level only reads the variables
// bound above it, which the levels above leave alone until it is done.
type descent struct {
	ctx    context.Context
	sink   rel.Sink         // where the descent emits: the caller's sink, or a buffer in front of it
	runs   rel.RunSink      // sink, when it takes the last level as runs
	grp    *group           // sink, when the descent emits a group at a time
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
	// At most one level per variable, and room for a group mark.
	x.levels = make([]level, 0, q.K+1)
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
		t, d := tries[j], depth[j]
		parts = append(parts, part{vals: t.LevelVals(d), start: t.LevelStart(d), cell: base[j] + d, v: t.Attr(d)})
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
			bound = q.FDs.Closure(bound)
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
}

// children returns the child run of the node p's parent level is bound to.
func (x *descent) children(p *part) (lo, hi int32) {
	if p.start == nil {
		return 0, int32(len(p.vals))
	}
	n := x.cells[p.cell-1].node
	return p.start[n], p.start[n+1]
}

// tick charges the descent's work to its meter, which fires the descent's
// fault site and polls ctx on the first tick and every work.Interval units.
func (x *descent) tick() error {
	return x.m.Check(x.ctx, x.st.Work())
}

// join binds every level in every consistent way and emits the completed
// rows, depth first, in one loop: d is the level in hand, going down a level
// on a binding and back up when a level has no more. Entering a level, or
// the row past the last, polls the meter.
func (x *descent) join() error {
	for d := 0; ; d++ {
		if err := x.tick(); err != nil {
			return err
		}
		ok, err := false, error(nil)
		if d < len(x.levels) {
			ok, err = x.open(&x.levels[d])
		} else if !x.sink.Push(x.vals) {
			return errStop
		}
		for ; err == nil && !ok; ok, err = x.resume(&x.levels[d]) {
			if d--; d < 0 {
				return nil
			}
		}
		if err != nil {
			return err
		}
	}
}

// open enters lv and binds its first value; it reports whether there is one
// to descend below. On a level that relations store, the relation with the
// smallest fanout seeds the candidates and the others gallop after it from
// the start of their child runs.
func (x *descent) open(lv *level) (bool, error) {
	if lv.group {
		return true, nil
	}
	if len(lv.parts) == 0 {
		return x.bind(lv) // in no relation: whatever the FDs derive from nothing
	}
	seed := 0
	for i := range lv.parts {
		p := &lv.parts[i]
		lo, hi := x.children(p)
		x.cells[p.cell] = cell{lo, hi}
		if s := x.cells[lv.parts[seed].cell]; hi-lo < s.end-s.node {
			seed = i
		}
	}
	s := x.cells[lv.parts[seed].cell]
	lv.seed, lv.next, lv.end = int32(seed), s.node, s.end
	if lv.run && x.runs != nil {
		return false, x.emitRun(lv)
	}
	return x.resume(lv)
}

// resume binds lv's next value, and reports whether there is one. A group
// mark is done once the levels below it are: its group leaves for the sink.
func (x *descent) resume(lv *level) (bool, error) {
	if lv.group {
		return false, x.grp.flush()
	}
	for lv.next < lv.end && x.match(lv, false) { // a derived-only level has no next: it binds once
		if ok, err := x.bind(lv); ok || err != nil {
			return ok, err
		}
	}
	return false, nil
}

// match moves lv's cursor to the next candidate every part holds, binds lv's
// variable and the parts' nodes to it, and reports whether there was one.
// With all set it runs through every candidate instead, and appends those
// every part holds to x.run. Each candidate costs an extension, and each
// probe of a part other than the seed a lookup. A probe whose cursor is
// already at or past the candidate is one compare; only a cursor behind it
// gallops.
func (x *descent) match(lv *level, all bool) bool {
	cands, i, run := lv.parts[lv.seed].vals[:lv.end], int(lv.next), x.run[:0]
	if len(lv.parts) == 2 {
		// The common case on triangles, paths and cycles: one cursor, kept
		// in locals, and one lookup a candidate.
		c := &x.cells[lv.parts[1-lv.seed].cell]
		vals, pos := lv.parts[1-lv.seed].vals[:c.end], int(c.node)
		for ; i < len(cands); i++ {
			val := cands[i]
			if pos < len(vals) && vals[pos] < val {
				if pos++; pos < len(vals) && vals[pos] < val {
					pos = rel.SeekGE(vals, pos+1, val)
				}
			}
			if pos < len(vals) && vals[pos] == val {
				if !all {
					break
				}
				run = append(run, val)
			}
		}
		c.node = int32(pos)
		n := min(i+1, len(cands)) - int(lv.next)
		x.st.Extensions += n
		x.st.Lookups += n
	} else {
	cand:
		for ; i < len(cands); i++ {
			val := cands[i]
			x.st.Extensions++
			for j := range lv.parts {
				if j == int(lv.seed) {
					continue
				}
				c := &x.cells[lv.parts[j].cell]
				x.st.Lookups++
				vals, pos := lv.parts[j].vals[:c.end], int(c.node)
				if pos < len(vals) && vals[pos] < val {
					pos = rel.SeekGE(vals, pos+1, val)
					c.node = int32(pos)
				}
				if pos == len(vals) || vals[pos] != val {
					continue cand
				}
			}
			if !all {
				break
			}
			run = append(run, val)
		}
	}
	x.run, lv.next = run, int32(min(i+1, len(cands)))
	if i == len(cands) {
		return false
	}
	x.cells[lv.parts[lv.seed].cell].node = int32(i)
	x.vals[lv.v] = cands[i]
	return true
}

// bind finishes binding lv's variable: FD propagation and consistency (LFTJ
// footnote-1 behaviour), then the trie levels the derived values reach. It
// reports whether the levels below are to be entered.
func (x *descent) bind(lv *level) (bool, error) {
	if lv.prog != nil && !x.e.Run(lv.prog, x.vals) {
		return false, nil
	}
	if lv.err != nil {
		return false, lv.err
	}
	for i := range lv.seeks {
		p := &lv.seeks[i]
		lo, hi := x.children(p)
		x.st.Lookups++
		vals, v := p.vals[:hi], x.vals[p.v]
		pos := rel.SeekGE(vals, int(lo), v)
		if pos == len(vals) || vals[pos] != v {
			return false, nil // some relation rules the derived value out
		}
		x.cells[p.cell].node = int32(pos)
	}
	return true, nil
}

// emitRun hands the rows vals[:K-1] × (the candidates of lv every part
// holds) to the run sink: the seed's child run itself when lv has one part.
func (x *descent) emitRun(lv *level) error {
	last := lv.parts[lv.seed].vals[lv.next:lv.end]
	if len(lv.parts) == 1 {
		x.st.Extensions += len(last)
	} else {
		x.match(lv, true)
		last = x.run
	}
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
// relation is deferred until it is in the FD closure of the variables
// ordered before it (on a query that passes query.CheckComputable, the
// closure is exactly what expansion derives).
// The plain identity order would dead-end on queries whose derived
// variables precede their determining sets — e.g. Fig. 9, where P, S, T
// are derivable only after an input variable M, N, or O is bound.
func DefaultOrder(q *query.Q) []int {
	covered := q.CoveredVars()
	order := make([]int, 0, q.K)
	var have varset.Set
	for len(order) < q.K {
		reach := q.FDs.Closure(have)
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
