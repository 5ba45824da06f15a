package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
)

// hotTriangle builds a triangle instance R(x,y) ⋈ S(y,z) ⋈ T(z,x) whose
// output mass concentrates on nhubs hot x-values (each contributing fan²
// result rows through its own dense y/z blocks), over a background of
// sparse random triangles that widens x's distinct-value domain. The hubs
// are spaced apart in value order so a range partitioning puts each hub in
// its own morsel.
func hotTriangle(nhubs, fan, bg int, seed int64) *query.Q {
	q := paper.Triangle()
	R, S, T := q.Rels[0], q.Rels[1], q.Rels[2]
	for h := 0; h < nhubs; h++ {
		hub := rel.Value(h * 97)
		yb := rel.Value(10000 + h*2*fan)
		zb := rel.Value(10000 + (h*2+1)*fan)
		for i := 0; i < fan; i++ {
			R.Add(hub, yb+rel.Value(i))
			T.Add(zb+rel.Value(i), hub)
			for j := 0; j < fan; j++ {
				S.Add(yb+rel.Value(i), zb+rel.Value(j))
			}
		}
	}
	s := uint64(seed)*2862933555777941757 + 3037000493
	next := func(m int) rel.Value {
		s = s*2862933555777941757 + 3037000493
		return rel.Value(s>>33) % rel.Value(m)
	}
	for i := 0; i < bg; i++ {
		x, y, z := next(500), 20000+next(200), 30000+next(200)
		R.Add(x, y)
		S.Add(y, z)
		T.Add(z, x)
	}
	for _, r := range q.Rels {
		r.SortDedup()
	}
	return q
}

// TestMorselQueueLockstepStealBalance drives the work-stealing queue in a
// deterministic single-threaded lockstep: worker 0 dequeues one "hot"
// morsel and stalls on it forever, while workers 1..3 keep pulling round-
// robin. The end-to-end wall balance of a real pool depends on the OS
// scheduler (meaningless on a 1-CPU CI box), but the queue-level property
// is deterministic: the stalled worker's share is stolen, every morsel is
// delivered exactly once, and no worker's morsel count exceeds ~2× the
// mean.
func TestMorselQueueLockstepStealBalance(t *testing.T) {
	const nm, workers = 32, 4
	q := newMorselQueue(nm, workers)
	counts := make([]int, workers)
	seen := make([]bool, nm)
	take := func(w int) bool {
		m, _, ok := q.next(w)
		if !ok {
			return false
		}
		if seen[m] {
			t.Fatalf("morsel %d delivered twice", m)
		}
		seen[m] = true
		counts[w]++
		return true
	}
	if !take(0) { // worker 0 grabs the hot morsel and never returns
		t.Fatal("worker 0 got no morsel")
	}
	for live := true; live; {
		live = false
		for w := 1; w < workers; w++ {
			if take(w) {
				live = true
			}
		}
	}
	for m := range seen {
		if !seen[m] {
			t.Fatalf("morsel %d never delivered", m)
		}
	}
	if q.steals.Load() < int64(nm/workers-1) {
		t.Fatalf("stalled worker's share not stolen: %d steals, counts %v", q.steals.Load(), counts)
	}
	mean := nm / workers
	for w, c := range counts {
		if c > 2*mean {
			t.Fatalf("worker %d executed %d morsels, > 2× mean %d (counts %v)", w, c, mean, counts)
		}
	}
}

// TestMorselMatchesSequential checks byte identity of the sequential and
// the morsel execution on the hot-key instance, plus morsel stats
// coherence.
func TestMorselMatchesSequential(t *testing.T) {
	q := hotTriangle(4, 8, 300, 1)
	seq, _ := mustRun(t, q, &Options{Workers: 1})
	morsel, stM := mustRun(t, q, &Options{Workers: 4, MinParallelRows: 1})
	identical(t, seq, morsel)

	if stM.Workers != 4 || stM.Morsels <= stM.Workers {
		t.Fatalf("morsel path not exercised: %+v", stM)
	}
	sum := 0
	for _, c := range stM.WorkerMorsels {
		sum += c
	}
	if sum != stM.Morsels {
		t.Fatalf("worker morsel counts %v sum to %d, want %d", stM.WorkerMorsels, sum, stM.Morsels)
	}
}

// TestWorkerClampOnNarrowDomain: a partition variable with fewer distinct
// values than workers must clamp Stats.Workers on the parallel path
// (before this fix, surplus workers owned empty partitions and still paid
// goroutine + sort + merge overhead).
func TestWorkerClampOnNarrowDomain(t *testing.T) {
	q := paper.Triangle()
	R, S, T := q.Rels[0], q.Rels[1], q.Rels[2]
	for x := 0; x < 3; x++ { // 3 distinct x-values, wide y/z domains
		for i := 0; i < 40; i++ {
			y := rel.Value(100 + (x*40+i)%120)
			z := rel.Value(300 + (x*53+i*7)%120)
			R.Add(rel.Value(x), y)
			S.Add(y, z)
			T.Add(z, rel.Value(x))
		}
	}
	for _, r := range q.Rels {
		r.SortDedup()
	}
	seq, _ := mustRun(t, q, &Options{Workers: 1})
	out, st := mustRun(t, q, &Options{Workers: 8, MinParallelRows: 1})
	identical(t, seq, out)
	if st.PartitionVar != 0 {
		t.Fatalf("expected partition on x (var 0), got %d", st.PartitionVar)
	}
	if st.Workers > 3 {
		t.Fatalf("workers not clamped to the 3 distinct x-values: %+v", st)
	}
}

// TestMorselLimitStreamsPrefix: with the partition variable in output
// column 0, the streaming frontier emits as morsels complete, so a LIMIT-k
// sink receives exactly the first k rows of the full output and stops the
// run without an error.
func TestMorselLimitStreamsPrefix(t *testing.T) {
	q := hotTriangle(4, 8, 300, 2)
	full, _ := mustRun(t, q, &Options{Workers: 1})
	if full.Len() < 10 {
		t.Fatalf("instance too small: %d rows", full.Len())
	}
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	inner := rel.NewCollect("Q", q.AllVars().Members()...)
	st, err := b.RunInto(context.Background(), &Options{Workers: 4, MinParallelRows: 1}, rel.Limit(inner, 3))
	if err != nil {
		t.Fatalf("limited morsel run failed: %v", err)
	}
	if st.OutSize != 3 || inner.R.Len() != 3 {
		t.Fatalf("limit 3 delivered %d rows (OutSize %d)", inner.R.Len(), st.OutSize)
	}
	for i := 0; i < 3; i++ {
		got, want := inner.R.Row(i), full.Row(i)
		for c := range want {
			if got[c] != want[c] {
				t.Fatalf("row %d = %v, want the full output's prefix row %v", i, got, want)
			}
		}
	}
}

// cancelOnPushSink cancels the run's context from inside the first Push —
// a consumer tearing down mid-stream while morsels are still in flight.
type cancelOnPushSink struct {
	cancel context.CancelFunc
	n      int
}

func (s *cancelOnPushSink) Push(rel.Tuple) bool {
	s.n++
	s.cancel()
	return true // keep "consuming": the cancellation must stop the run, not the sink
}

// TestMorselCtxCancelMidStream cancels ctx from the first streamed row and
// expects the run to surface context.Canceled (not hang, not panic) while
// workers are mid-flight.
func TestMorselCtxCancelMidStream(t *testing.T) {
	q := hotTriangle(4, 8, 300, 3)
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnPushSink{cancel: cancel}
	_, err = b.RunInto(ctx, &Options{Workers: 4, MinParallelRows: 1}, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if sink.n == 0 {
		t.Fatal("sink saw no rows: the frontier never streamed")
	}
}

// TestProfileSplitsMakespan sanity-checks the modeled-makespan probe: the
// morsel schedule has many more splits than workers, one worker's makespan
// is the sequential total, and more workers never model slower than one.
func TestProfileSplitsMakespan(t *testing.T) {
	q := hotTriangle(4, 8, 300, 4)
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{Workers: 4, MinParallelRows: 1}
	morsels, err := b.ProfileSplits(context.Background(), opts, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(morsels.Durations) <= 4 {
		t.Fatalf("morsel profile has %d splits, want ≫ 4", len(morsels.Durations))
	}
	if morsels.Makespan(1, true) != morsels.Total() {
		t.Fatal("1-worker makespan must equal the sequential total")
	}
	if morsels.Makespan(4, true) > morsels.Total() {
		t.Fatal("4-worker makespan cannot exceed the sequential total")
	}
}

// TestProfileSplitsMatchesTheRun: ProfileSplits profiles exactly the morsels
// the run before it executed — an auto run's attempt verdict included, so
// generic join's morsels where the attempt fit and the machine's where it
// overran — and shares the run's memoized schedule: the run after it builds
// no index a warm run does not (none, but SM's per-run one per morsel).
func TestProfileSplitsMatchesTheRun(t *testing.T) {
	ctx := context.Background()
	fig4, _ := paper.Fig4Instance(125)
	degreeTriangle := family(t, "paper/degree-triangle", 2048, 1)
	for _, tc := range []struct {
		name     string
		q        *query.Q
		alg, ran Algorithm
	}{
		{"skew/zipf-hot", family(t, "skew/zipf-hot", 2048, 1), AlgAuto, AlgGenericJoin},
		{"Fig1Skew(512)", paper.Fig1Skew(512), AlgAuto, AlgChain},
		{"paper/four-cycle-key", family(t, "paper/four-cycle-key", 2048, 1), AlgAuto, AlgGenericJoin},
		{"paper/degree-triangle", degreeTriangle, AlgAuto, AlgGenericJoin},
		{"paper/fig4", fig4, AlgSM, AlgSM},
		{"paper/degree-triangle", degreeTriangle, AlgCSMA, AlgCSMA},
	} {
		for _, workers := range []int{2, 4} {
			b := mustBind(t, tc.q)
			opts := &Options{Algorithm: tc.alg, Workers: workers, MinParallelRows: 1}
			if _, err := b.RunInto(ctx, opts, &rel.CountSink{}); err != nil {
				t.Fatal(err)
			}
			before := rel.IndexBuilds()
			st, err := b.RunInto(ctx, opts, &rel.CountSink{})
			if err != nil {
				t.Fatal(err)
			}
			warm := rel.IndexBuilds() - before
			if st.Ran != tc.ran || st.Morsels < 2 {
				t.Fatalf("%s %s on %d workers: precondition: ran %s on %d morsels, want %s on a schedule", tc.name, tc.alg, workers, st.Ran, st.Morsels, tc.ran)
			}
			prof, err := b.ProfileSplits(ctx, opts, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(prof.Durations) != st.Morsels {
				t.Errorf("%s %s on %d workers: profiled %d splits, the run executed %d morsels", tc.name, tc.alg, workers, len(prof.Durations), st.Morsels)
			}
			before = rel.IndexBuilds()
			if _, err := b.RunInto(ctx, opts, &rel.CountSink{}); err != nil {
				t.Fatal(err)
			}
			if n := rel.IndexBuilds() - before; n != warm {
				t.Errorf("%s %s on %d workers: the run after the profile built %d indexes, a warm run %d: the schedule is not shared", tc.name, tc.alg, workers, n, warm)
			}
		}
	}
}

// TestPinnedSchedules pins (Workers, PartitionVar, Morsels) of the first and
// second auto run on the benchmark's par-skew sources, and of an explicit
// chain on Fig1Skew, at 2, 3 and 4 workers and the default MinParallelRows.
// A change here changes what the parallel path runs.
func TestPinnedSchedules(t *testing.T) {
	fine := [3][3]int{{2, 0, 8}, {3, 0, 12}, {4, 0, 16}}
	chain := [3][3]int{{2, 1, 2}, {3, 1, 3}, {4, 1, 4}}
	for _, tc := range []struct {
		name string
		q    *query.Q
		alg  Algorithm
		want [3][3]int // at 2, 3 and 4 workers
	}{
		{"skew/zipf-hot@2048", family(t, "skew/zipf-hot", 2048, 1), AlgAuto, fine},
		{"skew/near-product@1024", family(t, "skew/near-product", 1024, 1), AlgAuto, fine},
		{"paper/triangle-product@40", family(t, "paper/triangle-product", 40, 1), AlgAuto, fine},
		{"paper/fig1-skew@2048", family(t, "paper/fig1-skew", 2048, 1), AlgAuto, chain},
		{"paper/four-cycle-key@2048", family(t, "paper/four-cycle-key", 2048, 1), AlgAuto, [3][3]int{{2, 0, 16}, {3, 0, 16}, {4, 0, 16}}},
		{"paper/degree-triangle@2048", family(t, "paper/degree-triangle", 2048, 1), AlgAuto, fine},
		{"Fig1Skew(2048) chain", paper.Fig1Skew(2048), AlgChain, chain},
	} {
		for i, workers := range []int{2, 3, 4} {
			b := mustBind(t, tc.q)
			for run := 0; run < 2; run++ {
				st, err := b.RunInto(context.Background(), &Options{Algorithm: tc.alg, Workers: workers}, &rel.CountSink{})
				if err != nil {
					t.Fatal(err)
				}
				if got := [3]int{st.Workers, st.PartitionVar, st.Morsels}; got != tc.want[i] {
					t.Errorf("%s on %d workers, run %d: (Workers, PartitionVar, Morsels) = %v, want %v", tc.name, workers, run, got, tc.want[i])
				}
			}
		}
	}
}

// TestSplitSharedAcrossPoolSizes: pool sizes that give the same morsel count
// run the same memoized split instances, so a change of pool size re-sorts
// nothing and builds no index a warm run does not (four-cycle-key@2048 is 16
// morsels at 2, 3 and 4 workers).
func TestSplitSharedAcrossPoolSizes(t *testing.T) {
	ctx := context.Background()
	b := mustBind(t, family(t, "paper/four-cycle-key", 2048, 1))
	run := func(workers int) (*Stats, int64) {
		before := rel.IndexBuilds()
		st, err := b.RunInto(ctx, &Options{Workers: workers}, &rel.CountSink{})
		if err != nil {
			t.Fatal(err)
		}
		return st, rel.IndexBuilds() - before
	}
	run(2)
	st, warm := run(2)
	for _, workers := range []int{3, 4, 2} {
		got, builds := run(workers)
		if got.Morsels != st.Morsels || got.PartitionVar != st.PartitionVar {
			t.Fatalf("precondition: %d workers ran %d morsels on v%d, 2 workers %d on v%d", workers, got.Morsels, got.PartitionVar, st.Morsels, st.PartitionVar)
		}
		if builds != warm {
			t.Errorf("%d workers after 2: built %d indexes, a warm run %d: the split was rebuilt", workers, builds, warm)
		}
	}
}

// Total returns the sequential wall clock: the sum of all split durations.
func (p *PartProfile) Total() time.Duration {
	var sum time.Duration
	for _, d := range p.Durations {
		sum += d
	}
	return sum
}
