package fdq

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/rel"
)

// DefaultPreparedCacheSize is how many distinct query shapes a session
// keeps prepared unless WithPreparedCacheSize overrides it.
const DefaultPreparedCacheSize = 64

// Session executes queries against one catalog. Behind each session sits
// an LRU cache of prepared query shapes keyed by the query signature:
// preparing a shape (FD lattice, validation, cost-based planning
// artifacts) happens once, and re-running the same shape — from any
// goroutine, at any later catalog version — reuses it, re-binding to the
// newest catalog snapshot (and re-validating the declared FDs and degree
// bounds against it) only when the catalog actually changed.
//
// A Session is safe for concurrent use; sessions sharing one catalog are
// independent (each has its own cache).
type Session struct {
	cat *Catalog
	cap int
	gov *Governor // nil = ungoverned

	mu      sync.Mutex
	entries map[string]*list.Element // guarded by mu; signature → element holding *cacheEntry
	order   *list.List               // guarded by mu; front = most recently used
	stats   CacheStats               // guarded by mu
}

// cacheEntry is one cached shape. Its mutex serializes prepare/re-bind so
// concurrent first uses of the same shape do the analysis once.
type cacheEntry struct {
	sig string

	mu      sync.Mutex
	prep    *engine.Prepared // guarded by mu
	version uint64           // guarded by mu
	bound   *engine.Bound    // guarded by mu
}

// CacheStats reports the prepared-shape cache behaviour.
type CacheStats struct {
	Hits      int // executions that reused a cached prepared shape
	Misses    int // executions that prepared a new shape
	Evictions int // shapes dropped because the cache was full
	Entries   int // shapes currently cached
}

// SessionOption configures NewSession.
type SessionOption func(*Session)

// WithPreparedCacheSize bounds the number of prepared shapes the session
// retains (minimum 1).
func WithPreparedCacheSize(n int) SessionOption {
	return func(s *Session) {
		if n >= 1 {
			s.cap = n
		}
	}
}

// WithGovernor attaches a resource governor: every execution is admitted
// against the governor's bound budget before it runs and carries its
// per-query budgets (deadline, row cap, memory cap) while it runs. One
// governor may be shared across sessions.
func WithGovernor(g *Governor) SessionOption {
	return func(s *Session) { s.gov = g }
}

// NewSession returns a session over the catalog.
func NewSession(cat *Catalog, opts ...SessionOption) *Session {
	s := &Session{cat: cat, cap: DefaultPreparedCacheSize, entries: map[string]*list.Element{}, order: list.New()}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Governor returns the session's governor (nil when ungoverned) — the
// handle observability layers use to read admission state such as
// InFlight without holding their own reference.
func (s *Session) Governor() *Governor { return s.gov }

// CacheStats returns a snapshot of the prepared-shape cache counters.
func (s *Session) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.order.Len()
	return st
}

// entry returns (creating and evicting as needed) the cache entry for sig.
// The trim loop runs on every lookup, not just after an insert, so a cache
// left over capacity by an interrupted eviction (a panic mid-trim) heals
// itself on the next use instead of staying oversized.
func (s *Session) entry(sig string) *cacheEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var e *cacheEntry
	if el, ok := s.entries[sig]; ok {
		s.order.MoveToFront(el)
		s.stats.Hits++
		e = el.Value.(*cacheEntry)
	} else {
		e = &cacheEntry{sig: sig}
		s.entries[sig] = s.order.PushFront(e)
		s.stats.Misses++
	}
	for s.order.Len() > s.cap {
		faultinject.Fire(faultinject.SiteCacheEvict)
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*cacheEntry).sig)
		s.stats.Evictions++
	}
	return e
}

// drop removes a cache entry that never (or no longer) holds a usable
// prepared shape, so failing queries neither occupy LRU slots — evicting
// warm shapes — nor read as cache hits on retry.
func (s *Session) drop(sig string, e *cacheEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[sig]; ok && el.Value.(*cacheEntry) == e {
		s.order.Remove(el)
		delete(s.entries, sig)
	}
}

// resolve turns a query description into a runnable engine binding against
// the current catalog snapshot, preparing or re-binding as needed.
func (s *Session) resolve(q *Q) (*engine.Bound, *engine.Options, error) {
	if q.err != nil {
		return nil, nil, q.err
	}
	opts, err := engineOptions(q)
	if err != nil {
		return nil, nil, err
	}
	snap := s.cat.snap()
	sig := q.signature()
	e := s.entry(sig)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prep != nil && e.version == snap.version {
		return e.bound, opts, nil
	}
	if e.prep != nil {
		// Same shape, newer catalog: try a plain re-bind, which keeps the
		// shape's lattice and planning artifacts warm. Fall through to a
		// full re-prepare if the new data no longer fits the shape.
		if rels, rerr := q.buildRels(snap); rerr == nil {
			if b, berr := e.prep.Bind(rels); berr == nil {
				if verr := b.Query().Validate(); verr != nil {
					// The shape is fine; the new instance violates its
					// declared FDs/bounds. Keep the prepared shape but
					// don't serve the stale binding.
					return nil, nil, verr
				}
				e.version, e.bound = snap.version, b
				return e.bound, opts, nil
			}
		}
		e.prep, e.bound = nil, nil
	}
	prep, b, err := prepare(q, snap)
	if err != nil {
		s.drop(sig, e)
		return nil, nil, err
	}
	e.prep, e.version, e.bound = prep, snap.version, b
	return e.bound, opts, nil
}

// prepare builds, validates, and prepares the query against one snapshot.
func prepare(q *Q, snap *snapshot) (*engine.Prepared, *engine.Bound, error) {
	qq, err := q.build(snap)
	if err != nil {
		return nil, nil, err
	}
	if err := qq.Validate(); err != nil {
		return nil, nil, err
	}
	prep, err := engine.Prepare(qq)
	if err != nil {
		return nil, nil, err
	}
	b, err := prep.Bind(nil)
	if err != nil {
		return nil, nil, err
	}
	return prep, b, nil
}

// engineOptions maps the builder's execution options onto the engine's.
func engineOptions(q *Q) (*engine.Options, error) {
	alg := engine.AlgAuto
	switch q.alg {
	case "", "auto":
	case "chain":
		alg = engine.AlgChain
	case "sm":
		alg = engine.AlgSM
	case "csma":
		alg = engine.AlgCSMA
	case "generic":
		alg = engine.AlgGenericJoin
	case "binary":
		alg = engine.AlgBinary
	default:
		return nil, fmt.Errorf("fdq: unknown algorithm %q", q.alg)
	}
	return &engine.Options{Algorithm: alg, Workers: q.workers}, nil
}

// exec is one admitted execution: the resolved binding plus the budgets
// the governor attached. finish must run when the execution completes (it
// returns the admission's semaphore hold and releases the deadline
// context).
type exec struct {
	ctx       context.Context
	cancel    context.CancelFunc // non-nil iff a governor deadline is attached
	b         *engine.Bound
	opts      *engine.Options
	adm       *admission
	limit     int  // effective row limit: the query's, tightened by degrade
	countOnly bool // degraded to COUNT-only: deliver no rows
	maxRows   int  // governor delivered-row budget (0 = none)
}

func (e *exec) finish() {
	if e.cancel != nil {
		e.cancel()
	}
	e.adm.release()
}

// begin resolves q, admits it against the session's governor (if any), and
// assembles its execution budget. On success the caller owns e.finish().
func (s *Session) begin(ctx context.Context, q *Q) (*exec, error) {
	b, opts, err := s.resolve(q)
	if err != nil {
		return nil, err
	}
	e := &exec{ctx: ctx, b: b, opts: opts, limit: q.limit}
	// The certified output bound drives admission and is reported in
	// RunStats even when ungoverned. Admission() is memoized per binding:
	// the plan's own bound, solved without choosing the machine, which a
	// run plans only if its generic-join attempt overruns.
	logBound := b.Admission().LogBound
	g := s.gov
	if g == nil {
		e.adm = &admission{logBound: logBound}
		return e, nil
	}
	if g.timeout > 0 {
		e.ctx, e.cancel = context.WithTimeout(ctx, g.timeout)
	}
	adm, err := g.admit(e.ctx, logBound)
	if err != nil {
		if e.cancel != nil {
			e.cancel()
		}
		return nil, err
	}
	e.adm = adm
	if adm.degraded {
		if g.degradeLimit > 0 {
			if e.limit <= 0 || e.limit > g.degradeLimit {
				e.limit = g.degradeLimit
			}
		} else {
			e.countOnly = true
		}
	}
	e.maxRows = g.maxRows
	opts.MemLimitBytes = g.maxMem
	return e, nil
}

// budgetSink enforces the governor's delivered-row budget. Unlike
// LimitSink — a caller's request, truncating silently — tripping this
// budget stops the producer and fails the query with *RowsExceededError.
type budgetSink struct {
	s       rel.Sink
	max     int
	n       int
	tripped bool
}

func (b *budgetSink) Push(t rel.Tuple) bool {
	if b.n >= b.max {
		b.tripped = true
		return false
	}
	b.n++
	return b.s.Push(t)
}

// sink assembles the execution's sink chain over base: the effective
// LIMIT, then (for row-delivering executions only — counting delivers no
// rows) the governor's row budget.
func (e *exec) sink(base rel.Sink, delivering bool) (rel.Sink, *budgetSink) {
	s := base
	if e.limit > 0 {
		s = rel.Limit(s, e.limit)
	}
	var bs *budgetSink
	if delivering && e.maxRows > 0 {
		bs = &budgetSink{s: s, max: e.maxRows}
		s = bs
	}
	return s, bs
}

// execErr finalizes an execution's error: a tripped row budget (which the
// engine reports as a clean consumer stop) becomes *RowsExceededError, and
// internal engine errors are mapped to the public typed errors.
func (e *exec) execErr(err error, bs *budgetSink) error {
	if err == nil && bs != nil && bs.tripped {
		return &RowsExceededError{Limit: bs.max}
	}
	return wrapExecErr(err)
}

// Query starts executing q and returns a streaming iterator over its
// result rows (see Rows). The executor runs a bounded number of rows ahead,
// so a slow consumer backpressures it; Close (or cancelling ctx) stops the
// executor promptly. The first resolution or admission error is returned
// here; errors during execution surface from Rows.Err.
//
// Under a governor, the iterator runs with the governor's budgets: its
// deadline, row budget (tripping it surfaces ErrRowsExceeded from Err),
// and memory budget all apply, and a COUNT-only degraded run delivers no
// rows — the count arrives in Stats().Rows.
func (s *Session) Query(ctx context.Context, q *Q) (r *Rows, err error) {
	defer recoverToError(&err)
	e, err := s.begin(ctx, q)
	if err != nil {
		return nil, err
	}
	rctx, rcancel := context.WithCancel(e.ctx)
	cancel := rcancel
	if e.cancel != nil {
		ecancel := e.cancel
		cancel = func() { rcancel(); ecancel() }
	}
	r = newRows(q.vars, ctx, rctx.Done(), cancel)
	go r.run(rctx, e)
	return r, nil
}

// Collect executes q and materializes the full (or Limit-capped) answer:
// one []Value per row, columns in Vars order, rows lexicographically
// sorted and duplicate-free. A COUNT-only degraded run returns no rows
// (use Count, or Query's Stats, for the count).
func (s *Session) Collect(ctx context.Context, q *Q) (out [][]Value, err error) {
	defer recoverToError(&err)
	e, err := s.begin(ctx, q)
	if err != nil {
		return nil, err
	}
	defer e.finish()
	var base rel.Sink
	var collect *rel.CollectSink
	if e.countOnly {
		base = &rel.CountSink{}
	} else {
		collect = rel.NewCollect("Q", seqAttrs(len(q.vars))...)
		base = collect
	}
	sink, bs := e.sink(base, !e.countOnly)
	_, rerr := e.b.RunInto(e.ctx, e.opts, sink)
	if err := e.execErr(rerr, bs); err != nil {
		return nil, err
	}
	if collect == nil {
		return nil, nil
	}
	// The rows are views over the collector's own flat storage, which nobody
	// else holds: the collector is private to this call, and an executor only
	// ever streams a relation it built itself into it (rel.Stream). Each is a
	// full-slice view (cap == len), so appending to a returned row
	// reallocates rather than overwriting its neighbour.
	out = make([][]Value, collect.R.Len())
	for i := range out {
		out[i] = collect.R.Row(i)
	}
	return out, nil
}

// Count executes q and returns the number of result rows (capped by
// Limit, if set) without materializing a single tuple. Counting delivers
// no rows, so the governor's row budget does not apply (a COUNT-only
// degraded session still counts in full); the deadline and memory budget
// do.
func (s *Session) Count(ctx context.Context, q *Q) (n int, err error) {
	defer recoverToError(&err)
	e, err := s.begin(ctx, q)
	if err != nil {
		return 0, err
	}
	defer e.finish()
	var c rel.CountSink
	sink, bs := e.sink(&c, false)
	_, rerr := e.b.RunInto(e.ctx, e.opts, sink)
	if err := e.execErr(rerr, bs); err != nil {
		return 0, err
	}
	return c.N, nil
}

// Explanation describes how a query would execute.
type Explanation struct {
	Algorithm string  // chosen (or forced) algorithm
	LogBound  float64 // predicted log2 output/runtime bound; +Inf unknown, NaN for forced algorithms
	Reason    string  // one-line planner rationale
}

// Explain resolves q against the current catalog and reports the planner's
// decision without executing anything.
func (s *Session) Explain(q *Q) (Explanation, error) {
	b, opts, err := s.resolve(q)
	if err != nil {
		return Explanation{}, err
	}
	if opts.Algorithm != engine.AlgAuto {
		return Explanation{Algorithm: string(opts.Algorithm), LogBound: math.NaN(), Reason: "explicitly requested"}, nil
	}
	pl := b.Plan()
	return Explanation{Algorithm: string(pl.Algorithm), LogBound: pl.LogBound, Reason: pl.Reason}, nil
}

// seqAttrs returns 0..k-1: builder variables are declared in index order,
// so the engine's ascending-variable output order is exactly Vars order.
func seqAttrs(k int) []int {
	out := make([]int, k)
	for i := range out {
		out[i] = i
	}
	return out
}
