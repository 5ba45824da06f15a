package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/fd"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/wcoj"
	"repro/internal/work"
)

// These tests pin the generic-join attempt a sequential planner-chosen FD run
// makes first (attemptInto): its budget, the resume after an overrun, the
// verdict kept on the Bound, and what it must never do.

// rowSink collects rows one Push at a time: no RunSink, no Stream adoption.
type rowSink struct{ c *rel.CollectSink }

func (s rowSink) Push(t rel.Tuple) bool { return s.c.Push(t) }

// tripPoint runs the attempt's descent alone: the rows it delivers before it
// overruns, and its work counters then.
func tripPoint(t *testing.T, b *Bound) (int, *wcoj.Stats) {
	t.Helper()
	var c rel.CountSink
	ctx, _ := work.WithLimit(context.Background(), attemptBudget(b.q, b.Plan()))
	ws, err := wcoj.GenericJoinInto(ctx, b.q, wcoj.DefaultOrder(b.q), &c)
	if !errors.Is(err, work.ErrLimit) {
		t.Fatalf("the attempt does not overrun: %v", err)
	}
	return c.N, ws
}

// TestAttemptOverrunResumesOnEverySink: on Example 5.8's skew instance the
// attempt overruns (generic join is Ω(N²) there) and the chain algorithm
// resumes, on one worker and on the morsel path. Every kind of sink a first
// run can be handed sees exactly the naive answer, the rows the attempt
// delivered included once. A run's work is the attempt's plus the chain's.
// Alone, the attempt spent at most its budget plus one descent step; on k
// workers sharing the budget, at most k·(one share quantum + one step) more.
func TestAttemptOverrunResumesOnEverySink(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{512, 2048} {
		q := paper.Fig1Skew(n)
		want := naive.Evaluate(q)
		p, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		fresh := func() *Bound {
			b, err := p.Bind(q.Rels)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if alg := fresh().Plan().Algorithm; alg != AlgChain {
			t.Fatalf("Fig1Skew(%d) is planned to %s, want chain", n, alg)
		}
		delivered, ws := tripPoint(t, fresh())
		budget, spent := attemptBudget(q, fresh().Plan()), ws.Work()
		if delivered == 0 || delivered >= want.Len() {
			t.Fatalf("Fig1Skew(%d): the attempt delivers %d of %d rows before it overruns: the resume is not tested mid-stream", n, delivered, want.Len())
		}
		if spent <= budget || spent > budget+stepWork(q) {
			t.Fatalf("Fig1Skew(%d): the attempt spent %d, budget %d + one descent step %d", n, spent, budget, stepWork(q))
		}
		// The chain the run resumes with, on the auto run's split.
		chain := map[int]int{}
		for _, workers := range []int{1, 2} {
			chain[workers] = splitWork(t, fresh(), &Options{Algorithm: AlgChain, Workers: workers, MinParallelRows: 1})
		}
		if cw := chainWork(t, q); chain[1] != cw {
			t.Fatalf("Fig1Skew(%d): the chain counted %d, its visited tuples and probes %d", n, chain[1], cw)
		}

		vars := q.AllVars().Members()
		prefix := func(k int) *rel.Relation {
			r := rel.New("Q", vars...)
			for i := 0; i < k && i < want.Len(); i++ {
				r.AddTuple(want.Row(i))
			}
			return r
		}
		type outcome struct {
			got  func() *rel.Relation
			want *rel.Relation
		}
		for _, tc := range []struct {
			name string
			opts Options
			sink func() (rel.Sink, outcome)
		}{
			{"collect", Options{}, func() (rel.Sink, outcome) {
				c := rel.NewCollect("Q", vars...)
				return c, outcome{func() *rel.Relation { return c.R }, want}
			}},
			{"count", Options{}, func() (rel.Sink, outcome) {
				c := &rel.CountSink{}
				return c, outcome{func() *rel.Relation { return prefix(c.N) }, want}
			}},
			{"limit-1", Options{}, func() (rel.Sink, outcome) {
				c := rel.NewCollect("Q", vars...)
				return rel.Limit(c, 1), outcome{func() *rel.Relation { return c.R }, prefix(1)}
			}},
			{"limit-past-trip", Options{}, func() (rel.Sink, outcome) {
				c := rel.NewCollect("Q", vars...)
				return rel.Limit(c, delivered+7), outcome{func() *rel.Relation { return c.R }, prefix(delivered + 7)}
			}},
			{"per-row", Options{}, func() (rel.Sink, outcome) {
				c := rel.NewCollect("Q", vars...)
				return rowSink{c}, outcome{func() *rel.Relation { return c.R }, want}
			}},
			{"mem-limit", Options{MemLimitBytes: 1 << 40}, func() (rel.Sink, outcome) {
				c := rel.NewCollect("Q", vars...)
				return c, outcome{func() *rel.Relation { return c.R }, want}
			}},
			{"block", Options{}, func() (rel.Sink, outcome) {
				// fdq.Query's hand-off: a consumer goroutine drains the blocks.
				bs := rel.NewBlockSink(nil)
				got := rel.New("Q", vars...)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for blk := range bs.C {
						for i, w := 0, len(vars); i < blk.N; i++ {
							got.AddTuple(blk.Vals[i*w : (i+1)*w])
						}
					}
				}()
				return bs, outcome{func() *rel.Relation { bs.Flush(); close(bs.C); <-done; return got }, want}
			}},
		} {
			for _, workers := range []int{1, 2} {
				b := fresh()
				sink, out := tc.sink()
				opts := tc.opts
				opts.Workers, opts.MinParallelRows = workers, 1
				st, err := b.RunInto(ctx, &opts, sink)
				if err != nil {
					t.Fatalf("Fig1Skew(%d) %s on %d workers: %v", n, tc.name, workers, err)
				}
				if got := out.got(); !rel.Identical(got, out.want) {
					t.Fatalf("Fig1Skew(%d) %s on %d workers: %d rows differ from the reference's %d", n, tc.name, workers, got.Len(), out.want.Len())
				}
				if st.Workers != workers {
					t.Fatalf("Fig1Skew(%d) %s: ran on %d workers, want %d", n, tc.name, st.Workers, workers)
				}
				if workers > 1 {
					// Where the morsels stand when the shared budget runs out
					// varies, so a limit may or may not stop the run first.
					if tc.name == "limit-1" || tc.name == "limit-past-trip" {
						continue
					}
					attempt := st.work - chain[workers]
					if lag := workers * (work.ShareQuantum + stepWork(q)); attempt <= budget || attempt > budget+lag {
						t.Fatalf("Fig1Skew(%d) %s: the attempt on %d workers spent %d, budget %d + lag %d", n, tc.name, workers, attempt, budget, lag)
					}
				} else if tc.name == "limit-1" {
					// The first row arrives before the trip: a stopped attempt, no verdict.
					if st.Ran != AlgGenericJoin || b.won.Load() != nil {
						t.Fatalf("Fig1Skew(%d) limit-1: ran %s, decided %v; want generic, undecided", n, st.Ran, b.won.Load())
					}
					continue
				} else if st.work != spent+chain[1] {
					t.Fatalf("Fig1Skew(%d) %s: the run counted %d work, its attempt's descent alone %d and the chain %d", n, tc.name, st.work, spent, chain[1])
				}
				if st.Ran != AlgChain || b.won.Load() != b.Plan() || !reflect.DeepEqual(st.Plan, *b.Plan()) {
					t.Fatalf("Fig1Skew(%d) %s on %d workers: ran %s, decided %v; want the chain algorithm after an overrun", n, tc.name, workers, st.Ran, b.won.Load())
				}
			}
		}
	}
}

// chainWork is the chain algorithm's visited tuples plus probes on q, along
// the planned chain.
func chainWork(t *testing.T, q *query.Q) int {
	t.Helper()
	st, err := chainalg.RunInto(context.Background(), q, bind(t, q).Plan().Chain, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	return st.TuplesVisited + st.Probes
}

// stepWork bounds the counted work one step of generic join's descent does on
// q, which is how far past its budget an attempt can get: one scan of a child
// run, probing each other relation once per candidate.
func stepWork(q *query.Q) int {
	most := 0
	for _, r := range q.Rels {
		most = max(most, r.Len())
	}
	return most * len(q.Rels)
}

// TestAttemptVerdictIsKept: the first complete run decides, and every later
// run goes straight to the winner: the chain algorithm with no generic work
// on Example 5.8's skew instance, generic join with no FD machine on Fig. 4.
// Every run reports the plan it executed from: the chain plan, chosen at the
// first run's overrun, on the skew instance; on Fig. 4 the admission record,
// since the machine (SM) is never planned.
func TestAttemptVerdictIsKept(t *testing.T) {
	fig4, _ := paper.Fig4Instance(216)
	for _, tc := range []struct {
		name           string
		q              *query.Q
		plan, ran, mch Algorithm // st.Plan, st.Ran, Plan()
	}{
		{"fig1-skew", paper.Fig1Skew(512), AlgChain, AlgChain, AlgChain},
		{"fig4", fig4, AlgAuto, AlgGenericJoin, AlgSM},
	} {
		b := bind(t, tc.q)
		want := naive.Evaluate(tc.q)
		for i := range 3 {
			out, st, err := b.Run(context.Background(), &Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !rel.Identical(out, want) {
				t.Fatalf("%s run %d differs from the reference", tc.name, i)
			}
			if st.Plan.Algorithm != tc.plan || st.Ran != tc.ran {
				t.Fatalf("%s run %d: plan %s ran %s, want %s and %s", tc.name, i, st.Plan.Algorithm, st.Ran, tc.plan, tc.ran)
			}
			if tc.plan != AlgAuto && !reflect.DeepEqual(st.Plan, *b.Plan()) {
				t.Fatalf("%s run %d reports %+v, the planner %+v", tc.name, i, st.Plan, *b.Plan())
			}
			if i > 0 && tc.ran == AlgChain {
				if cw := chainWork(t, tc.q); st.work != cw {
					t.Fatalf("%s run %d: %d work after the verdict, the chain algorithm's alone %d", tc.name, i, st.work, cw)
				}
			}
		}
		if was := planned(b); was != (tc.plan != AlgAuto) {
			t.Fatalf("%s: machine planned %v after three runs, want %v", tc.name, was, !was)
		}
		if got := b.Plan().Algorithm; got != tc.mch {
			t.Fatalf("%s: the planner chooses %s, want %s", tc.name, got, tc.mch)
		}
	}
}

// planned reports whether b's plan slot held the machine plan, and plans it
// if not.
func planned(b *Bound) bool {
	was := true
	planSlot.Get(b.q, func(q *query.Q) *Plan { was = false; return computePlan(q) })
	return was
}

// TestRacingFirstRunsAgree: eight first runs of one Bound race to decide;
// all eight answer the reference and the verdict is the lone run's.
func TestRacingFirstRunsAgree(t *testing.T) {
	fig4, _ := paper.Fig4Instance(216)
	for _, tc := range []struct {
		name string
		q    *query.Q
		won  Algorithm
	}{{"fig1-skew", paper.Fig1Skew(512), AlgChain}, {"fig4", fig4, AlgGenericJoin}} {
		b := bind(t, tc.q)
		want := naive.Evaluate(tc.q)
		var wg sync.WaitGroup
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, _, err := b.Run(context.Background(), &Options{Workers: 1})
				if err != nil {
					t.Errorf("%s: %v", tc.name, err)
				} else if !rel.Identical(out, want) {
					t.Errorf("%s: a racing first run differs from the reference", tc.name)
				}
			}()
		}
		wg.Wait()
		if got := b.won.Load(); got == nil || got.Algorithm != tc.won {
			t.Fatalf("%s: the race decided %v, want %s", tc.name, got, tc.won)
		}
	}
}

// TestAttemptFailuresDoNotFallBack: a UDF panic or a cancelled context inside
// the attempt fails the run with *PanicError or context.Canceled; the planned
// machine does not run and nothing is decided, and a clean re-run answers.
func TestAttemptFailuresDoNotFallBack(t *testing.T) {
	for _, mode := range []string{"panic", "cancel"} {
		q, _ := paper.Fig4Instance(216)
		u := &udfTrap{}
		u.install(q)
		b := bind(t, q)
		want := naive.Evaluate(q)
		ctx, cancel := context.WithCancel(context.Background())
		u.trip = cancel
		if mode == "panic" {
			u.trip = func() { panic("boom: injected UDF failure") }
		}
		u.calls, u.at = 0, 100
		_, st, err := b.Run(ctx, &Options{Workers: 1})
		cancel()
		var pe *PanicError
		switch {
		case mode == "panic" && !errors.As(err, &pe):
			t.Fatalf("%s: want *PanicError, got %v", mode, err)
		case mode == "cancel" && !errors.Is(err, context.Canceled):
			t.Fatalf("%s: want context.Canceled, got %v", mode, err)
		case mode == "cancel" && st.Ran != AlgGenericJoin:
			t.Fatalf("%s: ran %s after the attempt failed", mode, st.Ran)
		case b.won.Load() != nil:
			t.Fatalf("%s: a failed attempt decided %v", mode, b.won.Load())
		}
		u.at = 0
		out, st, err := b.Run(context.Background(), &Options{Workers: 1})
		if err != nil || !rel.Identical(out, want) || st.Ran != AlgGenericJoin {
			t.Fatalf("%s: clean re-run: ran %s, err %v", mode, st.Ran, err)
		}
	}
}

// TestExplicitRequestsNeverAttempt: an explicitly requested FD machine runs
// as requested with no attempt, on one worker or on the morsel path.
func TestExplicitRequestsNeverAttempt(t *testing.T) {
	fig4, _ := paper.Fig4Instance(216)
	for _, tc := range []struct {
		q    *query.Q
		opts Options
	}{
		{paper.Fig1Skew(512), Options{Algorithm: AlgChain, Workers: 1}},
		{fig4, Options{Algorithm: AlgSM, Workers: 1}},
		{fig4, Options{Algorithm: AlgCSMA, Workers: 1}},
		{fig4, Options{Algorithm: AlgSM, Workers: 2, MinParallelRows: 1}},
	} {
		b := bind(t, tc.q)
		out, st, err := b.Run(context.Background(), &tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Identical(out, naive.Evaluate(tc.q)) {
			t.Fatalf("%+v: output differs from the reference", tc.opts)
		}
		if machine := splitWork(t, b, &tc.opts); st.work != machine || st.Ran != st.Plan.Algorithm || b.won.Load() != nil {
			t.Fatalf("%+v: %d work, the machine's alone %d, ran %s for plan %s, decided %v", tc.opts, st.work, machine, st.Ran, st.Plan.Algorithm, b.won.Load())
		}
	}
}

// splitWork is the counted work of opts' explicit machine run on each split
// of b's schedule for it (the whole instance when there is none), summed.
func splitWork(t *testing.T, b *Bound, opts *Options) int {
	t.Helper()
	plan, err := b.plan(opts.Algorithm)
	if err != nil {
		t.Fatal(err)
	}
	parts := b.schedule(plan, opts.workers(b.q)).parts
	if parts == nil {
		parts = []*query.Q{b.q}
	}
	total := 0
	for _, qm := range parts {
		spent, _, err := runOneInto(context.Background(), qm, plan, &rel.CountSink{})
		if err != nil {
			t.Fatal(err)
		}
		total += spent
	}
	return total
}

// TestParallelAutoRunAttempts: an auto run on the morsel path tries generic
// join first, on more than one worker, and an attempt that fits decides for
// the Bound; the run reports the admission record, whose machine (SM) is
// never planned.
func TestParallelAutoRunAttempts(t *testing.T) {
	q, _ := paper.Fig4Instance(216)
	b := bind(t, q)
	out, st, err := b.Run(context.Background(), &Options{Workers: 2, MinParallelRows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Identical(out, naive.Evaluate(q)) {
		t.Fatal("output differs from the reference")
	}
	if st.Workers < 2 || st.Morsels < 2 || st.Ran != AlgGenericJoin || st.Plan.Algorithm != AlgAuto || st.work == 0 {
		t.Fatalf("the attempt ran %s for plan %s on %d workers, %d morsels, %d work; want generic join on the morsel path",
			st.Ran, st.Plan.Algorithm, st.Workers, st.Morsels, st.work)
	}
	if won := b.won.Load(); won != attemptFit {
		t.Fatalf("the attempt fit but decided %v", won)
	}
	if planned(b) {
		t.Fatal("a fitting parallel attempt planned the machine")
	}
}

// TestParallelUnfinishedAttemptDecidesNothing mirrors the sequential
// attempt's rules on the morsel path: a first run that does not finish — a
// LIMIT-1 sink, a cancel, a UDF panic, a memory trip — stores no verdict, a
// failure fails the run with its own error, and a clean re-run decides and
// answers the reference.
func TestParallelUnfinishedAttemptDecidesNothing(t *testing.T) {
	for _, mode := range []string{"limit-1", "cancel", "panic", "mem-limit"} {
		q, _ := paper.Fig4Instance(216)
		want := naive.Evaluate(q)
		var calls atomic.Int64
		at := int64(0)
		trip := func() {}
		for _, f := range q.FDs.FDs {
			for v, fn := range f.Fns {
				f.Fns[v] = func(args []fd.Value) fd.Value {
					if calls.Add(1) == at {
						trip()
					}
					return fn(args)
				}
			}
		}
		b := bind(t, q)
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{Workers: 2, MinParallelRows: 1}
		c := rel.NewCollect("Q", q.AllVars().Members()...)
		var sink rel.Sink = c
		switch mode {
		case "limit-1":
			sink = rel.Limit(c, 1)
		case "cancel":
			at, trip = 100, cancel
		case "panic":
			at, trip = 100, func() { panic("boom: injected UDF failure") }
		case "mem-limit":
			opts.MemLimitBytes = 256
		}
		st, err := b.RunInto(ctx, &opts, sink)
		cancel()
		var pe *PanicError
		var me *MemLimitError
		switch {
		case mode == "limit-1" && (err != nil || c.R.Len() != 1 || !slices.Equal(c.R.Row(0), want.Row(0))):
			t.Fatalf("%s: %d rows, err %v", mode, c.R.Len(), err)
		case mode == "cancel" && !errors.Is(err, context.Canceled):
			t.Fatalf("%s: want context.Canceled, got %v", mode, err)
		case mode == "panic" && !errors.As(err, &pe):
			t.Fatalf("%s: want *PanicError, got %v", mode, err)
		case mode == "mem-limit" && !errors.As(err, &me):
			t.Fatalf("%s: want *MemLimitError, got %v", mode, err)
		case st.Workers < 2 || st.Ran != AlgGenericJoin:
			t.Fatalf("%s: the attempt ran %s on %d workers", mode, st.Ran, st.Workers)
		case b.won.Load() != nil:
			t.Fatalf("%s: an unfinished attempt decided %v", mode, b.won.Load())
		}
		at = 0
		out, st, err := b.Run(context.Background(), &Options{Workers: 2, MinParallelRows: 1})
		if err != nil || !rel.Identical(out, want) || st.Ran != AlgGenericJoin || b.won.Load() != attemptFit {
			t.Fatalf("%s: clean re-run: ran %s, err %v, decided %v", mode, st.Ran, err, b.won.Load())
		}
	}
}

// TestAttemptOverrunAfterGroups: Fig. 9's generic-join order leaves the
// identity order after D E F, so the attempt streams a (D, E, F) group at a
// time and has delivered rows when it overruns; CSMA then resumes past them,
// on one worker and on the morsel path, and the collector holds exactly the
// naive answer. On three workers the caller's morsel is the one that
// streams, and whether it flushes a group before the other two spend the
// budget is the scheduler's call, so the run is repeated until it does.
func TestAttemptOverrunAfterGroups(t *testing.T) {
	defer func(c int) { attemptFactor = c }(attemptFactor)
	attemptFactor = 1
	q, _ := paper.Fig9Instance(64)
	want := naive.Evaluate(q)
	for _, workers := range []int{1, 3} {
		atTrip := 0
		for try := 0; try < 50 && atTrip == 0; try++ {
			b := bind(t, q)
			plan := b.Admission()
			st := &Stats{Plan: *plan, Ran: plan.Algorithm, Workers: 1, PartitionVar: -1}
			var g *memGauge
			if workers > 1 {
				g = &memGauge{}
			}
			c := rel.NewCollect("Q", q.AllVars().Members()...)
			atTrip = -1
			delivered := func() int { atTrip = c.R.Len(); return atTrip }
			if err := b.attemptInto(context.Background(), plan, workers, g, st, c, delivered); err != nil {
				t.Fatalf("%d workers: %v", workers, err)
			}
			if !rel.Identical(c.R, want) {
				t.Fatalf("%d workers: %d rows differ from the reference's %d", workers, c.R.Len(), want.Len())
			}
			if st.Ran != AlgCSMA || atTrip < 0 || atTrip >= want.Len() {
				t.Fatalf("%d workers: ran %s with %d rows delivered at the overrun; want CSMA after an overrun mid-stream", workers, st.Ran, atTrip)
			}
		}
		if atTrip == 0 {
			t.Fatalf("%d workers: no attempt in 50 delivered a row before it overran", workers)
		}
	}
}

// TestPrefixAttemptAfterAVerdict: once a count has decided for the chain
// algorithm on Example 5.8's skew instance, a run into a sink that can stop
// early tries one sequential descent under W/attemptFactor first, W the
// chain's work on the count. Limit(1) and Limit(7) finish inside it, with
// generic join's work to the first and seventh row; a per-row consumer
// reads everything, so the descent overruns and the chain resumes past its
// rows, for at most W/attemptFactor and one descent step more than the
// chain alone. Bare counts and collects run the chain alone. A UDF panic or
// a cancel inside the descent fails the run without a fallback, and the
// verdict stands.
func TestPrefixAttemptAfterAVerdict(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{512, 2048} {
		for _, workers := range []int{1, 3} {
			q := paper.Fig1Skew(n)
			var calls, at atomic.Int64 // the morsels call the UDFs concurrently
			trip := func() {}
			for _, f := range q.FDs.FDs {
				for v, fn := range f.Fns {
					f.Fns[v] = func(args []fd.Value) fd.Value {
						if calls.Add(1) == at.Load() {
							trip()
						}
						return fn(args)
					}
				}
			}
			want := naive.Evaluate(q)
			vars := q.AllVars().Members()
			b := bind(t, q)
			opts := &Options{Workers: workers, MinParallelRows: 1}
			if _, err := b.RunInto(ctx, opts, &rel.CountSink{}); err != nil {
				t.Fatal(err)
			}
			verdict, w := b.won.Load(), int(b.machine.Load())
			if verdict == nil || verdict.Algorithm != AlgChain || w == 0 {
				t.Fatalf("Fig1Skew(%d) on %d workers: the count decided %v with %d work", n, workers, verdict, w)
			}
			name := func(what string) string { return fmt.Sprintf("Fig1Skew(%d) %s on %d workers", n, what, workers) }
			kept := func(what string) {
				t.Helper()
				if b.won.Load() != verdict || int(b.machine.Load()) != w {
					t.Fatalf("%s: the verdict moved to %v with %d work, was chain with %d", name(what), b.won.Load(), b.machine.Load(), w)
				}
			}

			for _, tc := range []struct{ k, work int }{{1, 6}, {7, 24}} {
				c := rel.NewCollect("Q", vars...)
				st, err := b.RunInto(ctx, opts, rel.Limit(c, tc.k))
				if err != nil {
					t.Fatal(err)
				}
				if !rel.Identical(c.R, prefixOf(want, tc.k)) || st.Ran != AlgGenericJoin || st.work != tc.work {
					t.Fatalf("%s: %d rows, ran %s with %d work; want naive's first %d, generic join, %d work",
						name(fmt.Sprintf("Limit(%d)", tc.k)), c.R.Len(), st.Ran, st.work, tc.k, tc.work)
				}
				if !reflect.DeepEqual(st.Plan, *verdict) {
					t.Fatalf("%s reports plan %s, the verdict %s", name("limit"), st.Plan.Algorithm, verdict.Algorithm)
				}
				kept("limit")
			}

			c := rel.NewCollect("Q", vars...)
			st, err := b.RunInto(ctx, opts, rowSink{c})
			if err != nil {
				t.Fatal(err)
			}
			budget := w / attemptFactor
			if !rel.Identical(c.R, want) || st.Ran != AlgChain {
				t.Fatalf("%s: %d rows, ran %s; want naive's %d, chain", name("per-row"), c.R.Len(), st.Ran, want.Len())
			}
			if st.work <= w+budget || st.work > w+budget+stepWork(q) {
				t.Fatalf("%s: %d work; want over the chain's %d + the budget %d, by at most one step %d", name("per-row"), st.work, w, budget, stepWork(q))
			}
			kept("per-row")

			for _, sink := range []rel.Sink{&rel.CountSink{}, rel.NewCollect("Q", vars...)} {
				st, err := b.RunInto(ctx, opts, sink)
				if err != nil || st.Ran != AlgChain || st.work != w {
					t.Fatalf("%s: ran %s with %d work, %v; want the chain's %d alone", name(fmt.Sprintf("bare %T", sink)), st.Ran, st.work, err, w)
				}
			}
			kept("bare")

			for _, mode := range []string{"panic", "cancel"} {
				cctx, cancel := context.WithCancel(ctx)
				trip = cancel
				if mode == "panic" {
					trip = func() { panic("boom: injected UDF failure") }
				}
				calls.Store(0)
				at.Store(1)
				c := rel.NewCollect("Q", vars...)
				st, err := b.RunInto(cctx, opts, rowSink{c})
				cancel()
				var pe *PanicError
				switch {
				case mode == "panic" && (!errors.As(err, &pe) || calls.Load() != 1):
					t.Fatalf("%s: %v after %d UDF calls; want *PanicError after the first", name(mode), err, calls.Load())
				case mode == "cancel" && (!errors.Is(err, context.Canceled) || st.work > budget):
					t.Fatalf("%s: %v after %d work; want context.Canceled inside the budget %d", name(mode), err, st.work, budget)
				case st.Ran != AlgGenericJoin:
					t.Fatalf("%s: ran %s; the chain must not take over", name(mode), st.Ran)
				}
				at.Store(0)
				kept(mode)
			}
		}
	}
}

// TestPrefixAttemptBeforeTheMachineCompletes: a Bound whose runs all stop
// early may hold a machine verdict without the machine's work W (on several
// workers a sink stop cancels the other morsels before the machine
// completes). Its prefix attempts then run under the first attempt's budget
// over attemptFactor, so on Example 5.8's skew instance a Limit(1) after a
// Limit(3000) costs generic join's first row, not the whole machine, on one
// worker and on two.
func TestPrefixAttemptBeforeTheMachineCompletes(t *testing.T) {
	ctx := context.Background()
	q := paper.Fig1Skew(2048)
	want := naive.Evaluate(q)
	vars := q.AllVars().Members()
	for _, workers := range []int{1, 2} {
		b := bind(t, q)
		opts := &Options{Workers: workers, MinParallelRows: 1}
		for i, k := range []int{3000, 1, 1} {
			c := rel.NewCollect("Q", vars...)
			st, err := b.RunInto(ctx, opts, rel.Limit(c, k))
			if err != nil {
				t.Fatal(err)
			}
			if !rel.Identical(c.R, prefixOf(want, k)) {
				t.Fatalf("%d workers, run %d: Limit(%d) gave %d rows, not naive's first %d", workers, i, k, c.R.Len(), k)
			}
			if verdict := b.won.Load(); verdict == nil || verdict.Algorithm != AlgChain {
				t.Fatalf("%d workers, run %d: the verdict is %v, want chain", workers, i, verdict)
			}
			if k == 1 && (st.Ran != AlgGenericJoin || st.work != 6) {
				t.Fatalf("%d workers, run %d: Limit(1) ran %s with %d work (W %d); want generic join's 6",
					workers, i, st.Ran, st.work, b.machine.Load())
			}
		}
	}
}

// prefixOf is r's first k rows.
func prefixOf(r *rel.Relation, k int) *rel.Relation {
	out := rel.New(r.Name, r.Attrs...)
	for i := 0; i < k && i < r.Len(); i++ {
		out.AddTuple(r.Row(i))
	}
	return out
}
