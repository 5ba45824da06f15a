package fdq

import (
	"container/list"
	"context"
	"math"
	"sync"
	"time"
)

// Policy decides what happens to a query whose certified log2 output bound
// (the KhamisNS16 bound the planner computes from the query's FDs and
// degree constraints) exceeds the governor's admission budget.
type Policy int

const (
	// PolicyReject refuses over-budget queries with *BoundExceededError
	// (errors.Is-matchable against ErrBoundExceeded). The error carries
	// the certified bound and the budget so callers can degrade by hand.
	PolicyReject Policy = iota
	// PolicyQueue admits every query but makes each one hold 2^bound
	// units of a weighted semaphore whose capacity is 2^budget while it
	// runs: cheap queries run concurrently, expensive ones wait their
	// turn (FIFO) and serialize. An over-budget query's weight clamps to
	// the full capacity, so it runs alone.
	PolicyQueue
	// PolicyDegrade admits over-budget queries in a degraded execution
	// mode sized by WithDegradeLimit: LIMIT-k when k > 0, COUNT-only when
	// k == 0 (no row is materialized or delivered; the count is reported
	// via RunStats.Rows and Count). RunStats.Degraded marks such runs.
	PolicyDegrade
)

// String names the policy for logs and error messages.
func (p Policy) String() string {
	switch p {
	case PolicyReject:
		return "reject"
	case PolicyQueue:
		return "queue"
	case PolicyDegrade:
		return "degrade"
	}
	return "unknown"
}

// Governor is a session's resource-control policy: it gates each query on
// its certified output bound *before* execution (admission control) and
// attaches per-query budgets (deadline, row cap, memory cap) that are
// enforced *during* execution. Attach one with WithGovernor; one Governor
// may be shared by several sessions, in which case queued admissions
// contend on the same semaphore — exactly what a multi-tenant deployment
// wants.
//
// The planner's bound is a worst-case certificate (PAPER.md): a query
// admitted under budget can still produce fewer rows, but never more, so
// admission decisions made on the bound are sound — the governor never
// lets a query through whose output could exceed the budget.
//
// A query with no certified bound (NaN or +Inf — e.g. one the planner
// cannot bound) is treated as over budget whenever the budget is finite.
type Governor struct {
	budget       float64 // max admitted log2 bound; +Inf admits everything
	policy       Policy
	degradeLimit int                  // PolicyDegrade row cap; 0 = COUNT-only
	timeout      time.Duration        // per-query deadline (0 = none)
	maxRows      int                  // per-query delivered-row budget (0 = none)
	maxMem       int64                // per-query memory budget, bytes (0 = none)
	sem          *weightedSem         // non-nil iff policy == PolicyQueue
	observer     func(AdmissionEvent) // non-nil: called on every admission decision
}

// AdmissionEvent describes one admission decision, delivered to the
// observer installed with WithAdmissionObserver. Exactly one event fires
// per admit attempt, after the decision is final (for PolicyQueue: after
// the queued wait resolved, so Wait is the real head-of-line time).
type AdmissionEvent struct {
	LogBound float64       // the query's certified log2 output bound (NaN = uncertified)
	Policy   Policy        // the governor's policy at decision time
	Wait     time.Duration // how long the queued wait took (admitted or not)
	Admitted bool          // false: refused (over budget, or the queued wait was cancelled)
	Queued   bool          // waited behind the PolicyQueue semaphore
	Degraded bool          // admitted in PolicyDegrade mode
}

// GovernorOption configures NewGovernor.
type GovernorOption func(*Governor)

// WithMaxLogBound sets the admission budget: queries whose certified log2
// output bound exceeds b are subject to the governor's policy. Unset, the
// budget is +Inf and every query is admitted outright.
func WithMaxLogBound(b float64) GovernorOption {
	return func(g *Governor) { g.budget = b }
}

// WithPolicy selects what happens to over-budget queries (default
// PolicyReject).
func WithPolicy(p Policy) GovernorOption {
	return func(g *Governor) { g.policy = p }
}

// WithDegradeLimit sets the row cap for PolicyDegrade executions: k > 0
// degrades over-budget queries to LIMIT-k, k == 0 (the default) to
// COUNT-only.
func WithDegradeLimit(k int) GovernorOption {
	return func(g *Governor) {
		if k >= 0 {
			g.degradeLimit = k
		}
	}
}

// WithQueryTimeout attaches a deadline to every admitted query, counted
// from admission (so time spent queued under PolicyQueue is charged). The
// deadline reaches the executors' inner-loop cancellation checks; a run
// that trips it fails with context.DeadlineExceeded.
func WithQueryTimeout(d time.Duration) GovernorOption {
	return func(g *Governor) {
		if d > 0 {
			g.timeout = d
		}
	}
}

// WithMaxRows caps the rows a query may deliver. Unlike Q.Limit — a
// caller's request, truncating silently — tripping this budget is an
// error: *RowsExceededError (errors.Is ErrRowsExceeded).
func WithMaxRows(n int) GovernorOption {
	return func(g *Governor) {
		if n > 0 {
			g.maxRows = n
		}
	}
}

// WithMaxMemory caps a query's approximate result-memory accounting
// (8 bytes per value, summed over partition buffers and sink deliveries;
// see engine.Options.MemLimitBytes). Tripping it fails the query with
// *MemoryExceededError (errors.Is ErrMemoryExceeded).
func WithMaxMemory(bytes int64) GovernorOption {
	return func(g *Governor) {
		if bytes > 0 {
			g.maxMem = bytes
		}
	}
}

// WithAdmissionObserver installs a callback invoked synchronously on every
// admission decision — admitted, queued, degraded, or refused — with the
// decision's numbers. This is the metrics hook a multi-tenant server hangs
// its admitted/rejected counters and queue-wait histograms on (see
// fdq/fdqd). The callback runs on the admitting goroutine and must not
// block; a nil fn removes the observer.
func WithAdmissionObserver(fn func(AdmissionEvent)) GovernorOption {
	return func(g *Governor) { g.observer = fn }
}

// NewGovernor builds a governor. With no options it admits everything and
// imposes no budgets — each option opts into one control.
func NewGovernor(opts ...GovernorOption) *Governor {
	g := &Governor{budget: math.Inf(1), policy: PolicyReject}
	for _, o := range opts {
		o(g)
	}
	if g.policy == PolicyQueue {
		g.sem = newWeightedSem(pow2Clamped(g.budget))
	}
	return g
}

// InFlight reports the admission-semaphore units currently held — the
// live weight of queued-policy queries past admission and not yet
// finished. It is 0 for nil governors and non-queue policies (they hold
// no slots). Churn and leak tests assert it returns to baseline after the
// clients vanish: a nonzero resting value is a leaked admission slot.
func (g *Governor) InFlight() int64 {
	if g == nil || g.sem == nil {
		return 0
	}
	g.sem.mu.Lock()
	defer g.sem.mu.Unlock()
	return g.sem.cur
}

// overBudget reports whether a certified bound exceeds the budget;
// uncertified bounds (NaN, +Inf) exceed any finite budget.
func (g *Governor) overBudget(logBound float64) bool {
	if math.IsInf(g.budget, 1) {
		return false
	}
	return math.IsNaN(logBound) || logBound > g.budget
}

// admission is the outcome of one admission decision, threaded through the
// execution so budgets apply and the semaphore hold is released exactly
// once when the query finishes.
type admission struct {
	logBound float64
	wait     time.Duration // how long the queued wait took

	releaseFn func()
	once      sync.Once

	queued   bool // waited behind the PolicyQueue semaphore
	degraded bool // running in PolicyDegrade mode
}

// release returns the admission's semaphore hold (if any); idempotent and
// nil-safe.
func (a *admission) release() {
	if a == nil {
		return
	}
	a.once.Do(func() {
		if a.releaseFn != nil {
			a.releaseFn()
		}
	})
}

// admit applies the governor's policy to one query's certified bound. A
// nil governor admits everything. The returned admission must be released
// when the query finishes (it is a no-op unless the policy queued the
// query). ctx aborts a queued wait.
func (g *Governor) admit(ctx context.Context, logBound float64) (*admission, error) {
	a := &admission{logBound: logBound}
	if g == nil {
		return a, nil
	}
	over := g.overBudget(logBound)
	switch g.policy {
	case PolicyQueue:
		w := pow2Clamped(logBound)
		start := time.Now()
		waited, err := g.sem.acquire(ctx, w)
		if err != nil {
			g.observe(AdmissionEvent{LogBound: logBound, Policy: g.policy, Queued: waited, Wait: time.Since(start)})
			return nil, err
		}
		a.queued = waited
		a.wait = time.Since(start)
		a.releaseFn = func() { g.sem.release(w) }
	case PolicyDegrade:
		a.degraded = over
	default: // PolicyReject
		if over {
			g.observe(AdmissionEvent{LogBound: logBound, Policy: g.policy})
			return nil, &BoundExceededError{LogBound: logBound, Budget: g.budget}
		}
	}
	g.observe(AdmissionEvent{LogBound: logBound, Policy: g.policy, Admitted: true,
		Queued: a.queued, Wait: a.wait, Degraded: a.degraded})
	return a, nil
}

// observe delivers an admission event to the installed observer, if any.
func (g *Governor) observe(ev AdmissionEvent) {
	if g.observer != nil {
		g.observer(ev)
	}
}

// pow2Clamped returns 2^⌈log⌉ as an int64, clamped into [1, 2^62].
// Uncertified bounds (NaN, +Inf) saturate high — an unbounded query must
// weigh as much as the semaphore holds; -Inf is the opposite extreme, a
// *provably empty* output, and clamps low with every other log ≤ 0 to the
// minimum weight of 1 (every admitted query occupies at least one unit).
func pow2Clamped(log float64) int64 {
	if math.IsNaN(log) || log >= 62 {
		return 1 << 62
	}
	if log <= 0 {
		return 1
	}
	return int64(1) << int(math.Ceil(log))
}

// weightedSem is a FIFO, context-aware weighted semaphore (hand-rolled:
// this module deliberately has no dependencies). Waiters are granted
// strictly in arrival order — a heavy waiter at the head blocks lighter
// ones behind it, which is the fairness admission control wants: cheap
// queries cannot starve an expensive one forever.
type weightedSem struct {
	cap int64

	mu      sync.Mutex
	cur     int64
	waiters list.List // of *semWaiter
}

type semWaiter struct {
	w     int64
	ready chan struct{} // closed (under mu) when the grant happens
}

func newWeightedSem(capacity int64) *weightedSem {
	if capacity < 1 {
		capacity = 1
	}
	return &weightedSem{cap: capacity}
}

// acquire takes w units (clamped to capacity, so any single request can
// always eventually be granted), blocking FIFO behind earlier waiters.
// It reports whether it had to wait. On ctx cancellation it returns
// ctx.Err(), returning the grant if it raced in.
func (s *weightedSem) acquire(ctx context.Context, w int64) (waited bool, err error) {
	if w > s.cap {
		w = s.cap
	}
	if w < 1 {
		w = 1
	}
	s.mu.Lock()
	if s.waiters.Len() == 0 && s.cur+w <= s.cap {
		s.cur += w
		s.mu.Unlock()
		return false, nil
	}
	wtr := &semWaiter{w: w, ready: make(chan struct{})}
	elem := s.waiters.PushBack(wtr)
	s.mu.Unlock()

	select {
	case <-wtr.ready:
		return true, nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-wtr.ready:
			// The grant raced the cancellation: hand it back.
			s.mu.Unlock()
			s.release(w)
		default:
			s.waiters.Remove(elem)
			s.mu.Unlock()
			// Removing a waiter can unblock the queue (a lighter waiter
			// behind it may now fit).
			s.grant()
		}
		return true, ctx.Err()
	}
}

// release returns w units and grants as many head-of-queue waiters as now
// fit.
func (s *weightedSem) release(w int64) {
	if w > s.cap {
		w = s.cap
	}
	if w < 1 {
		w = 1
	}
	s.mu.Lock()
	s.cur -= w
	if s.cur < 0 {
		panic("fdq: weightedSem released more than acquired")
	}
	s.mu.Unlock()
	s.grant()
}

// grant pops head waiters while they fit. Grants happen under mu, so
// acquire's ready-check under mu is race-free.
func (s *weightedSem) grant() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.waiters.Len() > 0 {
		head := s.waiters.Front()
		wtr := head.Value.(*semWaiter)
		if s.cur+wtr.w > s.cap {
			return
		}
		s.cur += wtr.w
		s.waiters.Remove(head)
		close(wtr.ready)
	}
}
