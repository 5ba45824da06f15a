// Package engine is the execution layer of the library: it separates a
// query's *shape* (variables, FDs, degree bounds, the FD lattice, and every
// planning artifact derived from them) from its *instance binding* (the
// relations and their sizes), so a shape is analyzed once and executed many
// times, concurrently, on different instances:
//
//	p, _ := engine.Prepare(q)           // shape analysis, done once
//	b, _ := p.Bind(rels)                // bind an instance (nil = q's own)
//	out, stats, _ := b.Run(ctx, nil)    // plan + execute (parallel if large)
//	stats, _ = b.RunInto(ctx, nil, sink) // stream rows; sink can stop early
//
// Run and RunInto are safe to call from many goroutines on the same or
// different Bound values: the lattice, the plan records, the relations' index
// caches and the instance's prepared record (expand.Inputs, kept with the
// Bound) are all mutex-guarded, and each execution keeps its own working
// state. (A Sink belongs to one execution; don't share one across
// concurrent Runs.)
//
// The planner (see planner.go) makes a cost-based choice over the paper's
// bounds, and large instances are executed in parallel by range-partitioning
// one variable's domain into morsels pulled by a worker pool (see
// parallel.go, morsel.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/wcoj"
	"repro/internal/work"
)

// Algorithm selects an execution strategy.
type Algorithm string

// Available algorithms.
const (
	AlgAuto        Algorithm = "auto"    // planner picks from the bound analysis
	AlgChain       Algorithm = "chain"   // Chain Algorithm (Alg. 1)
	AlgSM          Algorithm = "sm"      // Sub-Modularity Algorithm (Alg. 2)
	AlgCSMA        Algorithm = "csma"    // Conditional SM Algorithm (Sec. 5.3)
	AlgGenericJoin Algorithm = "generic" // FD-blind worst-case-optimal join
	AlgBinary      Algorithm = "binary"  // traditional binary-join plan
)

// Options tunes one Run. The zero value (or nil) means: let the planner
// choose the algorithm, use one worker per CPU when the instance is large
// enough, and fall back to sequential execution below MinParallelRows.
type Options struct {
	Algorithm Algorithm // "" or AlgAuto: cost-based planner decides
	// Workers sizes the morsel pool of a run over MinParallelRows input
	// rows (≤0: GOMAXPROCS; 1 forces sequential). An auto run's
	// generic-join attempt runs on the same pool as its machine would.
	Workers         int
	MinParallelRows int // ≤0: default 2048 total input rows
	// MemLimitBytes, when > 0, aborts the run with a *MemLimitError once
	// the approximate bytes of result data accounted on the run's one
	// gauge — parallel partition buffers plus rows delivered to the sink,
	// summed — exceed the budget. The accounting is coarse (8 bytes per
	// value, executor-internal buffers on the sequential buffering paths
	// are not gauged); it is a resource governor's backstop, not an
	// allocator.
	MemLimitBytes int64
}

// Stats reports what one Run did: the plan (chosen algorithm, predicted
// log2 bound, and the planner's reasoning), the degree of parallelism, and
// the outcome.
type Stats struct {
	// Plan is the plan the run executed from. An auto run whose machine
	// was never chosen — its generic-join attempt fit, or a stopped sink
	// ended it first — holds the admission record instead
	// (Bound.Admission: Algorithm AlgAuto, the same LogBound), on one
	// worker or many; Bound.Plan reports the machine.
	Plan         Plan
	Ran          Algorithm // what produced the rows: Plan.Algorithm, or generic join where an attempt fit
	Workers      int       // goroutines that executed partitions (1 = sequential; clamped to the partition variable's distinct-value count)
	PartitionVar int       // variable whose domain was partitioned; -1 sequential
	Duration     time.Duration
	OutSize      int   // rows emitted (for a sink-stopped run: including the stopping push)
	MemBytes     int64 // approximate result bytes accounted (partition buffers + sink deliveries)

	Morsels       int   // morsels scheduled on the parallel path (0 = sequential)
	Steals        int   // morsels a worker took from another worker's share
	AdaptSwitches int   // always 0: mid-flight re-ordering was removed; kept until the benchmark stops reading it
	WorkerMorsels []int // morsels each worker executed (nil off the morsel path)

	work int // counted work of everything the run executed, an attempt's descents and the machine: Σ of the executors' Stats.Work; the work tests read it
}

// Prepared is an analyzed query shape. It wraps the query whose lazily
// built lattice and whose plan records accumulate artifacts shared by every
// instance bound from it.
type Prepared struct {
	q *query.Q
}

// Prepare analyzes the query shape: it checks that every variable is
// computable and returns a handle that instances are bound from. The
// relations attached to q become the default binding. The FD lattice is
// not built here: q.Lattice() is a mutex-guarded memo shared by every Bound
// of the shape, so the first planner rule or executor that consults it
// builds it once for all concurrent executions, and shapes the planner
// routes without it (FD-free queries) never pay for its 2^k closed sets.
func Prepare(q *query.Q) (*Prepared, error) {
	if err := q.CheckComputable(); err != nil {
		return nil, err
	}
	return &Prepared{q: q}, nil
}

// Query returns the underlying query shape (with its default binding).
func (p *Prepared) Query() *query.Q { return p.q }

// Bound is a prepared shape bound to one database instance, ready to Run.
// A Bound is immutable apart from its internal caches; Run may be called
// concurrently.
type Bound struct {
	prep *Prepared
	q    *query.Q

	mu    sync.Mutex
	sched *splitMemo // guarded by mu; the last schedule's distinct values and split (schedule)

	won atomic.Pointer[Plan] // what an FD plan's runs execute once its attempt decided (attemptInto)
}

// Bind attaches an instance to the shape: rels must match the shape's
// relations positionally (same variable sets). Passing nil binds the
// relations the shape was prepared with. The returned Bound shares the
// shape's lattice and plan records, so planning artifacts computed for one
// instance benefit all others.
//
// Bind checks schemas only — it does NOT re-check that the instance
// satisfies the declared guarded FDs and degree bounds (the executors
// assume they hold). For untrusted data, call Query().Validate() on the
// returned Bound before Run.
func (p *Prepared) Bind(rels []*rel.Relation) (*Bound, error) {
	if rels == nil {
		return &Bound{prep: p, q: p.q}, nil
	}
	if len(rels) != len(p.q.Rels) {
		return nil, fmt.Errorf("engine: bind got %d relations, shape has %d", len(rels), len(p.q.Rels))
	}
	for j, r := range rels {
		if r.VarSet() != p.q.Rels[j].VarSet() {
			return nil, fmt.Errorf("engine: relation %d (%s) binds variables %v, shape wants %v",
				j, r.Name, r.VarSet().Format(p.q.Names), p.q.Rels[j].VarSet().Format(p.q.Names))
		}
	}
	return &Bound{prep: p, q: p.q.WithFreshRels(rels)}, nil
}

// Query returns the bound query instance.
func (b *Bound) Query() *query.Q { return b.q }

func (o *Options) withDefaults() Options {
	out := Options{Algorithm: AlgAuto, Workers: 0, MinParallelRows: 2048}
	if o != nil {
		if o.Algorithm != "" {
			out.Algorithm = o.Algorithm
		}
		out.Workers = o.Workers
		if o.MinParallelRows > 0 {
			out.MinParallelRows = o.MinParallelRows
		}
		if o.MemLimitBytes > 0 {
			out.MemLimitBytes = o.MemLimitBytes
		}
	}
	return out
}

// Run plans and executes the bound instance, materializing the full
// result. With opts nil (or Algorithm AlgAuto) the cost-based planner
// chooses the algorithm; large instances are range-partitioned into morsels
// across a worker pool and the per-morsel outputs merged (identical to the
// sequential result). It is a zero-copy wrapper over RunInto with a
// collecting sink.
func (b *Bound) Run(ctx context.Context, opts *Options) (*rel.Relation, *Stats, error) {
	sink := rel.NewCollect("Q", b.q.AllVars().Members()...)
	st, err := b.RunInto(ctx, opts, sink)
	if err != nil {
		return nil, st, err
	}
	return sink.R, st, nil
}

// RunInto plans and executes the bound instance, streaming every result
// row into sink the moment it is final (see rel.Sink for the ordering
// contract: ascending-variable attributes, lexicographically sorted,
// duplicate-free — identical row for row to what Run materializes). A sink
// that stops — a LIMIT-k wrapper, a cancelled consumer — stops the
// executor as soon as the answer is determined; ctx cancellation is
// observed inside every executor's inner loops and at partition
// boundaries, and aborts with ctx's error.
//
// The sink sees one pusher at a time on every path, so it needs no
// locking: the calling goroutine sequentially and for the parallel path's
// barrier merge; on the parallel path's streaming frontier possibly
// different goroutines in succession — whichever worker owns the least
// not-yet-emitted morsel — each hand-over ordered by the scheduler's mutex.
// A sink must not depend on goroutine identity.
//
// Execution is panic-isolated: a panic anywhere in the executors — a
// user-supplied UDF, a sink, an executor bug — is recovered and returned
// as a *PanicError carrying the panic value and stack, on this goroutine
// and on every partition worker, so one poisoned query never kills the
// process or its sibling partitions (which are cancelled promptly).
func (b *Bound) RunInto(ctx context.Context, opts *Options, sink rel.Sink) (st *Stats, err error) {
	defer recoverToError(&err)
	o := opts.withDefaults()
	start := time.Now()
	workers := o.workers(b.q)
	// An auto run is admitted on the certificate alone; the machine is
	// planned at its attempt's first overrun, if any.
	var plan *Plan
	if o.Algorithm == AlgAuto {
		plan = b.Admission()
	} else if plan, err = b.plan(o.Algorithm); err != nil {
		return nil, err
	}
	st = &Stats{Plan: *plan, Ran: plan.Algorithm, Workers: 1, PartitionVar: -1}

	// Count emitted rows for Stats.OutSize. A bare CollectSink or CountSink
	// is read by its own length, not wrapped, so rel.Stream can adopt whole
	// runs and the morsel scheduler can count per morsel; under a
	// MemLimitBytes every sink is wrapped, since a bare one is gauged only
	// after the fact. The wrapper and the run's one memory gauge are one
	// allocation; a run that neither wraps nor partitions needs no gauge.
	var g *memGauge
	runSink, outSize := sink, (func() int)(nil)
	if c, ok := sink.(*rel.CollectSink); ok && o.MemLimitBytes <= 0 {
		before := c.R.Len()
		outSize = func() int { return c.R.Len() - before }
	} else if c, ok := sink.(*rel.CountSink); ok && o.MemLimitBytes <= 0 {
		before := c.N
		outSize = func() int { return c.N - before }
	} else {
		g = &memGauge{limit: o.MemLimitBytes}
		g.out = gaugeSink{s: sink, g: g}
		runSink = &g.out
		outSize = func() int { return g.out.n }
	}
	if workers > 1 && g == nil {
		g = &memGauge{} // the morsel path gauges its partition buffers
	}
	if err = ctx.Err(); err == nil && attempts(plan) {
		err = b.attemptInto(ctx, plan, workers, g, st, runSink, outSize)
	} else if err == nil && workers > 1 {
		_, err = b.runPlanInto(ctx, plan, workers, g, st, runSink)
	} else if err == nil {
		// Not through runPlanInto: fdq.Rows' producer goroutine grows its
		// stack on every query, and one more frame on this path costs one
		// more copy (fdqbench wcoj-warm first_row_p50_ms +27 %, 10 of 10
		// pairs; a bare 416-byte frame here does the same).
		st.work, _, err = runOneInto(ctx, b.q, plan, runSink)
	}
	if err != nil {
		return st, err
	}
	st.Duration = time.Since(start)
	st.OutSize = outSize()
	delivered := tupleBytes(st.OutSize, b.q.AllVars().Len())
	if g == nil {
		st.MemBytes = delivered
		return st, nil
	}
	if g.limit <= 0 {
		g.add(delivered) // without a limit deliveries are charged in one sum
	}
	st.MemBytes = g.used.Load()
	if g.trip.Load() {
		return st, &MemLimitError{Limit: g.limit, Used: st.MemBytes}
	}
	return st, nil
}

// runOneInto executes the planned algorithm sequentially on q — a whole
// instance or one split of it — streaming into sink, with the plan's own
// artifacts: the chain, the SM proof with its LLP solution, the CSM plan,
// each solved on the whole instance. A plan without its artifact runs the
// executor's own slot at q's sizes. It returns the executor's counted work
// (its Stats.Work) and, for generic join, whether the sink stopped it.
func runOneInto(ctx context.Context, q *query.Q, plan *Plan, sink rel.Sink) (spent int, stopped bool, err error) {
	switch plan.Algorithm {
	case AlgChain:
		st, err := chainalg.RunInto(ctx, q, plan.Chain, sink)
		return st.Work(), false, err
	case AlgSM:
		st, err := smalg.RunInto(ctx, q, plan.LLP, plan.Proof, sink)
		return st.Work(), false, err
	case AlgCSMA:
		st, err := csma.RunInto(ctx, q, plan.CSM, sink)
		return st.Work(), false, err
	case AlgGenericJoin:
		st, err := wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), sink)
		return st.Work(), st.Stopped, err
	case AlgBinary:
		st, err := wcoj.BinaryPlanInto(ctx, q, sink)
		return st.Work(), false, err
	}
	return 0, false, fmt.Errorf("engine: unknown algorithm %q", plan.Algorithm)
}

// attemptFactor is c in an attempt's budget of c·(N + 2^LogBound) counted work
// (E15 in cmd/experiments); a variable so that FuzzPlannerConsistency can vary it.
var attemptFactor = 8

// attempts reports whether a run of plan first tries generic join:
// the planner chose an FD machine for its finite bound, or the run was
// admitted on the LLP with the machine not chosen yet (Admission).
func attempts(plan *Plan) bool {
	switch plan.Algorithm {
	case AlgAuto, AlgChain, AlgSM, AlgCSMA:
		return !plan.explicit && !math.IsInf(plan.LogBound, 1)
	}
	return false
}

// attemptBudget is attemptFactor·(N + 2^LogBound), N the instance's rows.
func attemptBudget(q *query.Q, plan *Plan) int {
	return int(min(float64(attemptFactor)*(float64(q.TotalSize())+math.Exp2(plan.LogBound)), 1<<62))
}

// attemptFit is the plan an attempt runs, and Bound.won once one has
// finished: generic join wins.
var attemptFit = &Plan{Algorithm: AlgGenericJoin}

// attemptInto runs an FD plan, or an admission record whose machine is not
// chosen yet, on workers (1: sequentially), trying generic join first: one
// descent, or a morsel schedule of them, under one work.Limit of
// attemptBudget, which ctx carries to every descent's meter. On an overrun
// the group is cancelled, and the planned machine (planned now, for an
// admission record) runs on the same workers past the rows already
// delivered, a prefix of the same sorted answer. The first run that finishes
// or overruns decides for every later run of the (immutable) Bound, on any
// number of workers, and a machine verdict is what later runs report in
// st.Plan. A run that failed or whose sink stopped decides nothing.
// DESIGN.md, "Run time: the generic-join attempt", has the argument.
func (b *Bound) attemptInto(ctx context.Context, plan *Plan, workers int, g *memGauge, st *Stats, sink rel.Sink, delivered func() int) (err error) {
	if won := b.won.Load(); won != nil {
		if won != attemptFit {
			st.Plan = *won
		}
		st.Ran = won.Algorithm
		_, err = b.runPlanInto(ctx, won, workers, g, st, sink)
		return err
	}
	actx, _ := work.WithLimit(ctx, attemptBudget(b.q, plan))
	stopped, err := b.runPlanInto(actx, attemptFit, workers, g, st, sink)
	if !errors.Is(err, work.ErrLimit) {
		if err == nil && !stopped {
			b.won.Store(attemptFit)
		}
		st.Ran = AlgGenericJoin
		return err
	}
	if plan.Algorithm == AlgAuto {
		plan = b.Plan()
		st.Plan, st.Ran = *plan, plan.Algorithm
	}
	b.won.Store(plan)
	if n := delivered(); n > 0 {
		sink = &skipSink{s: sink, n: n}
	}
	_, err = b.runPlanInto(ctx, plan, workers, g, st, sink)
	return err
}

// skipSink drops the first n rows pushed and forwards the rest.
type skipSink struct {
	s rel.Sink
	n int
}

func (k *skipSink) Push(row rel.Tuple) bool {
	if k.n--; k.n >= 0 {
		return true
	}
	return k.s.Push(row)
}
