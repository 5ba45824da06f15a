package engine

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/work"
)

// morselTargetPerWorker is the minimum morsels-per-worker the scheduler
// aims for: enough granularity that a skewed morsel strands one morsel's
// worth of work behind a worker, not a worker's whole share.
const morselTargetPerWorker = 4

// morselSize is how many distinct partition-variable values one morsel
// covers on the parallel path. Smaller morsels level skew at finer grain;
// larger morsels amortize per-morsel overhead.
const morselSize = 128

// morselRels splits the instance into n morsel instances by contiguous
// ranges of v's sorted distinct-value union: morsel m covers the values
// vals[m·D/n : (m+1)·D/n), so the ranges are balanced in distinct values
// and ascending in value order — the property the streaming frontier's
// ordering argument rests on. Relations without v are shared read-only;
// a relation containing v is split in one pass (each split is a
// subsequence of a sorted duplicate-free relation, hence itself sorted
// and duplicate-free).
func morselRels(q *query.Q, v int, vals []rel.Value, n int) []*query.Q {
	d := len(vals)
	starts := make([]rel.Value, n)
	for m := range starts {
		starts[m] = vals[m*d/n]
	}
	// morselOf returns the last morsel whose range starts at or below x;
	// every stored v-value is in vals, so x ≥ starts[0] always.
	morselOf := func(x rel.Value) int {
		return sort.Search(n, func(m int) bool { return starts[m] > x }) - 1
	}
	parts := make([]*query.Q, n)
	for m := range parts {
		parts[m] = q.WithFreshRels(make([]*rel.Relation, len(q.Rels)))
	}
	for j, r := range q.Rels {
		c := r.Col(v)
		if c < 0 {
			for m := range parts {
				parts[m].Rels[j] = r
			}
			continue
		}
		split := make([]*rel.Relation, n)
		for m := range split {
			split[m] = rel.New(r.Name, r.Attrs...)
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			split[morselOf(row[c])].AddTuple(row)
		}
		for m := range parts {
			parts[m].Rels[j] = split[m]
		}
	}
	return parts
}

// morselQueue deals contiguous morsel-id ranges to the workers and lets an
// idle worker steal from the tail of the biggest remaining share. Owners
// pop their own front — so each worker walks its share in ascending morsel
// order, feeding the streaming frontier — while thieves take from the back,
// the work the owner would reach last.
type morselQueue struct {
	deques []morselDeque
	steals atomic.Int64
}

type morselDeque struct {
	mu     sync.Mutex
	lo, hi int // remaining own share: morsel ids [lo, hi)
}

func newMorselQueue(nmorsels, workers int) *morselQueue {
	q := &morselQueue{deques: make([]morselDeque, workers)}
	for w := range q.deques {
		q.deques[w].lo = w * nmorsels / workers
		q.deques[w].hi = (w + 1) * nmorsels / workers
	}
	return q
}

// next returns worker w's next morsel: the front of its own share, or —
// once that drains — a steal from the victim with the most remaining work.
// ok is false when every share is empty and the worker should exit. A
// thief that loses the race to the victim's owner (or another thief)
// simply rescans; with all work pre-dealt, the loop terminates.
func (q *morselQueue) next(w int) (m int, stolen, ok bool) {
	d := &q.deques[w]
	d.mu.Lock()
	if d.lo < d.hi {
		m = d.lo
		d.lo++
		d.mu.Unlock()
		return m, false, true
	}
	d.mu.Unlock()
	for {
		best, bestRem := -1, 0
		for i := range q.deques {
			if i == w {
				continue
			}
			di := &q.deques[i]
			di.mu.Lock()
			rem := di.hi - di.lo
			di.mu.Unlock()
			if rem > bestRem {
				best, bestRem = i, rem
			}
		}
		if best < 0 {
			return 0, false, false
		}
		db := &q.deques[best]
		db.mu.Lock()
		if db.lo < db.hi {
			db.hi--
			m = db.hi
			db.mu.Unlock()
			q.steals.Add(1)
			return m, true, true
		}
		db.mu.Unlock()
	}
}

// frontier is the ordered hand-off of morsel output to the caller's sink.
// When the partition variable is the output's first column (ordered), the
// runs are disjoint, ascending blocks, so the sink may receive morsel
// `next` — the least one not yet emitted — and nothing else: whoever runs
// or completes that morsel is the one pusher. It is either a generic-join
// worker that found its morsel at the frontier when it started and streams
// straight from the descent (it pushes through the frontier, which is
// itself a Sink), or the worker whose completed run the frontier reached,
// which hands the run over as a block and keeps going through the completed
// runs behind it. `next` only moves under mu and only by the current
// pusher, so the push right passes from goroutine to goroutine with a
// happens-before edge and the sink never sees two pushers. A sink that
// stops, panics or fails leaves `next` where it is: nobody pushes again.
// When the partition variable is a later column (unordered) rows of
// different morsels interleave, so runs only collect here for the barrier
// merge.
type frontier struct {
	sink   rel.Sink
	cancel context.CancelFunc // stops the remaining morsels once the sink stops

	mu      sync.Mutex
	next    int             // guarded by mu
	done    []bool          // guarded by mu
	runs    []*rel.Relation // guarded by mu; completed runs the frontier has not reached
	stopped bool            // guarded by mu; the sink ended the run: a consumer decision, not an error
	ordered bool            // fixed at construction
}

// claim reports whether morsel m, about to start, is at the frontier and
// may therefore push into the sink as it runs.
func (f *frontier) claim(m int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ordered && m == f.next
}

// Push forwards a directly streaming morsel's row.
func (f *frontier) Push(t rel.Tuple) bool {
	if f.sink.Push(t) {
		return true
	}
	f.stop()
	return false
}

func (f *frontier) stop() {
	f.mu.Lock()
	f.stopped = true
	f.mu.Unlock()
	f.cancel()
}

// outcome is read once every worker has exited: whether the sink ended the
// run, and the runs still waiting (all of them when unordered).
func (f *frontier) outcome() (stopped bool, runs []*rel.Relation) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stopped, f.runs
}

// complete records that morsel m finished — run is its buffered output, nil
// when it streamed directly — and, if that leaves the caller at the
// frontier, emits every completed run from there on. The mutex is released
// around each hand-over: the sink is caller code and may block.
func (f *frontier) complete(m int, run *rel.Relation) {
	f.mu.Lock()
	f.done[m], f.runs[m] = true, run
	if !f.ordered || f.stopped || m != f.next {
		f.mu.Unlock()
		return
	}
	for f.next < len(f.done) && f.done[f.next] {
		if r := f.runs[f.next]; r != nil {
			f.runs[f.next] = nil // emitted: release the run
			f.mu.Unlock()
			faultinject.Fire(faultinject.SiteStreamMerge)
			if !rel.Stream(r, f.sink) {
				f.stop()
				return
			}
			f.mu.Lock()
		}
		f.next++
	}
	f.mu.Unlock()
}

// runPlanInto executes plan on workers (1: sequentially) into sink, by the
// schedule the Bound decided for it (schedule): sequentially on the whole
// instance when there is none, else by the morsel-driven scheduler. The
// morsels are pulled from a work-stealing queue by a fixed pool (the calling
// goroutine and workers−1 new ones), and each morsel's rows reach sink by
// whichever of four hand-offs the scheduler can observe to be the cheapest
// sound one — never by an option.
//
// Soundness (DESIGN.md, "Morsel execution"): each output tuple binds one
// v-value, so the morsels are disjoint and union to the sequential output,
// each sorted and duplicate-free; their ranges ascend in v, so when v is
// variable 0, the output's first column, their runs are ordered blocks of it.
//
//  1. Count: into a bare *rel.CountSink (no memory limit to enforce) every
//     morsel counts into its own CountSink and the totals are summed.
//  2. Direct: with v == 0, a generic-join morsel that is the least
//     not-yet-emitted one when it starts streams into sink from the descent.
//  3. Block: with v == 0, every other morsel buffers its sorted run, handed
//     over whole (rel.Stream) once the frontier reaches it.
//  4. Merge: with v > 0 rows of different morsels interleave, so the runs
//     meet at a barrier and a tournament merge (rel.MergeSortedInto).
//
// Every generic-join morsel descends under wcoj.DefaultOrder, so its run is
// born sorted and v stays at the top of the descent, where a morsel's
// filter prunes the levels below it. An attempt's morsels share the
// work.Limit its ctx carries, so the first to see the group's work overrun
// it fails with work.ErrLimit and cancels the rest; the rows the frontier
// delivered until then are a prefix of the answer.
//
// stopped reports that the sink ended the run, or the memory gauge tripped,
// before it finished: a consumer decision, not an error. The run decided
// nothing about the answer's size, so an attempt stopped this way (even if
// a morsel also overran) stores no verdict.
func (b *Bound) runPlanInto(ctx context.Context, plan *Plan, workers int, g *memGauge, st *Stats, sink rel.Sink) (stopped bool, err error) {
	if workers > 1 {
		if err := ctx.Err(); err != nil {
			return false, err // don't pay the partition split for a dead context
		}
	}
	s := b.schedule(plan, workers)
	if s.parts == nil {
		st.Workers, st.PartitionVar = 1, -1
		spent, stopped, err := runOneInto(ctx, b.q, plan, sink)
		st.work += spent
		return stopped, err
	}
	workers, nm := s.workers, len(s.parts)
	generic := plan.Algorithm == AlgGenericJoin
	st.Workers = workers
	st.PartitionVar = s.v
	st.Morsels = nm
	st.WorkerMorsels = make([]int, workers)

	gctx, gcancel := context.WithCancel(ctx)
	defer gcancel()
	g.onTrip = gcancel // a trip in any partition or delivery stops the group

	count, counting := sink.(*rel.CountSink)
	// The frontier can stream only when v is the output's first column;
	// output attributes are ascending variable ids, so that is exactly v==0.
	f := &frontier{sink: sink, cancel: gcancel, ordered: s.v == 0,
		done: make([]bool, nm), runs: make([]*rel.Relation, nm)}
	errs := make([]error, workers)
	var rows, spent atomic.Int64 // rows counted (counting only) and work, summed over morsels
	queue := newMorselQueue(nm, workers)

	worker := func(w int) {
		defer func() {
			if errs[w] != nil && !errors.Is(errs[w], context.Canceled) {
				gcancel() // fail fast: release the siblings
			}
		}()
		defer recoverToError(&errs[w])
		faultinject.Fire(faultinject.SitePartitionWorker)
		for {
			m, _, ok := queue.next(w)
			if !ok {
				return
			}
			faultinject.Fire(faultinject.SiteMorselQueue)
			if err := gctx.Err(); err != nil {
				errs[w] = err
				return
			}
			qm := s.parts[m]
			var n int
			var err error
			switch {
			case counting:
				var c rel.CountSink
				n, _, err = runOneInto(gctx, qm, plan, &c)
				if err == nil {
					rows.Add(int64(c.N))
				}
			case generic && f.claim(m):
				faultinject.Fire(faultinject.SiteStreamMerge)
				n, _, err = runOneInto(gctx, qm, plan, f)
				if err == nil {
					f.complete(m, nil)
				}
			default:
				var run *rel.Relation
				run, n, err = runBuffered(gctx, qm, plan, g)
				if err == nil {
					f.complete(m, run)
				}
			}
			spent.Add(int64(n))
			if err != nil {
				errs[w] = err
				return
			}
			st.WorkerMorsels[w]++
		}
	}
	// The caller is worker 0, which owns morsel 0, the frontier's first: it
	// starts at once, not when the Go scheduler finds a P for a new goroutine.
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); worker(w) }()
	}
	worker(0)
	wg.Wait()
	st.Steals = int(queue.steals.Load())
	st.work += int(spent.Load())

	// Error selection: a real failure beats the context.Canceled artifacts
	// its group-cancel induced in the siblings, and an overrun beats them
	// unless the run was stopped anyway; then a stop — a tripped gauge
	// (RunInto turns it into the *MemLimitError) or a sink stop (a consumer
	// decision, not an error); then the caller's own cancellation.
	stopped, runs := f.outcome()
	stopped = stopped || g.trip.Load()
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !(stopped && errors.Is(err, work.ErrLimit)) {
			return stopped, err
		}
	}
	if stopped {
		return true, nil
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	for _, err := range errs {
		if err != nil {
			return false, err
		}
	}
	switch {
	case counting:
		count.N += int(rows.Load())
	case !f.ordered:
		faultinject.Fire(faultinject.SiteStreamMerge)
		stopped = !rel.MergeSortedInto(sink, runs)
	}
	return stopped, nil
}
