package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fd"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/varset"
	"repro/internal/wcoj"
)

// family builds a scenario-catalog instance by name.
func family(t *testing.T, name string, size int, seed int64) *query.Q {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f.Build(scenario.Params{Size: size, Seed: seed})
		}
	}
	t.Fatalf("unknown scenario family %q", name)
	return nil
}

// derivedFirstTriangle is a triangle whose variable 0 is stored nowhere and
// derived by a UDF from x and y, so the generic descent starts at variable
// 1 and the morsels split on it: the v > 0 generic shape.
func derivedFirstTriangle(n int) *query.Q {
	q := query.New("w", "x", "y", "z")
	r, s, tt := rel.New("R", 1, 2), rel.New("S", 2, 3), rel.New("T", 3, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if (i+j)%3 != 0 {
				r.Add(int64(i), int64(j))
			}
			s.Add(int64(i), int64(j))
			tt.Add(int64(i), int64(j))
		}
	}
	q.AddRel(r)
	q.AddRel(s)
	q.AddRel(tt)
	q.FDs.Add(varset.Of(1, 2), varset.Of(0), -1, map[int]fd.UDF{0: func(args []int64) int64 {
		return args[0]*1000 + args[1]
	}})
	return q
}

// settleGoroutines waits for the goroutine count to return to base: the
// scheduler must leave no worker behind, whatever ended the run.
func settleGoroutines(t *testing.T, base int, cell string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("%s: goroutines leaked: %d > %d\n%s", cell, runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// budgetSink mirrors fdq's governor row budget: it forwards max rows, then
// stops the producer and records the trip (which fdq turns into
// *RowsExceededError; the engine reports a clean consumer stop).
type budgetSink struct {
	s       rel.Sink
	max, n  int
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

// handoffResult is what one cell of the matrix observed.
type handoffResult struct {
	rows    *rel.Relation
	outSize int
	err     error
	tripped bool
}

// handoffSinks are the consumers the matrix drives. Each runs the bound
// instance once under opts and reports what it saw; exactOutSize is false
// where the number of pushes before the stop depends on timing.
var handoffSinks = []struct {
	name         string
	exactOutSize bool
	run          func(b *Bound, opts Options) handoffResult
}{
	{"collect", true, func(b *Bound, opts Options) handoffResult {
		c := rel.NewCollect("Q", b.q.AllVars().Members()...)
		st, err := b.RunInto(context.Background(), &opts, c)
		return handoffResult{rows: c.R, outSize: st.OutSize, err: err}
	}},
	{"count", true, func(b *Bound, opts Options) handoffResult {
		var c rel.CountSink
		st, err := b.RunInto(context.Background(), &opts, &c)
		if err == nil && c.N != st.OutSize {
			err = fmt.Errorf("CountSink saw %d rows, OutSize %d", c.N, st.OutSize)
		}
		return handoffResult{outSize: st.OutSize, err: err}
	}},
	{"limit-1", true, limitCell(1)},
	{"limit-3", true, limitCell(3)},
	{"limit-all", true, limitCell(1 << 30)},
	{"chan-closed-after-first-row", false, func(b *Bound, opts Options) handoffResult {
		got := rel.New("Q", b.q.AllVars().Members()...)
		stop := make(chan struct{})
		sink := rel.NewBlockSink(stop)
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			first := true
			for blk := range sink.C {
				for i, w := 0, len(got.Attrs); i < blk.N; i++ {
					got.AddTuple(blk.Vals[i*w : (i+1)*w])
				}
				if first {
					close(stop)
					first = false
				}
			}
		}()
		st, err := b.RunInto(context.Background(), &opts, sink)
		sink.Flush()
		close(sink.C)
		<-drained
		return handoffResult{rows: got, outSize: st.OutSize, err: err}
	}},
	{"row-budget-trip", true, func(b *Bound, opts Options) handoffResult {
		c := rel.NewCollect("Q", b.q.AllVars().Members()...)
		bs := &budgetSink{s: c, max: 5}
		st, err := b.RunInto(context.Background(), &opts, bs)
		return handoffResult{rows: c.R, outSize: st.OutSize, err: err, tripped: bs.tripped}
	}},
	{"mem-limit-trip", false, func(b *Bound, opts Options) handoffResult {
		opts.MemLimitBytes = 256
		c := rel.NewCollect("Q", b.q.AllVars().Members()...)
		_, err := b.RunInto(context.Background(), &opts, c)
		return handoffResult{err: err}
	}},
}

// errKind classifies a run's error for comparison across worker counts: the
// only failure the matrix expects is the typed memory-limit error (whose
// Used payload depends on when the gauge tripped).
func errKind(err error) string {
	var me *MemLimitError
	switch {
	case err == nil:
		return "nil"
	case errors.As(err, &me):
		return "mem-limit"
	}
	return err.Error()
}

func limitCell(k int) func(b *Bound, opts Options) handoffResult {
	return func(b *Bound, opts Options) handoffResult {
		c := rel.NewCollect("Q", b.q.AllVars().Members()...)
		st, err := b.RunInto(context.Background(), &opts, rel.Limit(c, k))
		return handoffResult{rows: c.R, outSize: st.OutSize, err: err}
	}
}

// TestHandoffMatrix: whatever hand-off the scheduler picks — per-morsel
// counts, a directly streaming frontier morsel, block hand-over, barrier
// merge — every consumer sees what the sequential run shows it: identical
// rows (a prefix where the consumer stops), the same typed error, the same
// OutSize, and no goroutine left behind.
func TestHandoffMatrix(t *testing.T) {
	shapes := []struct {
		name string
		q    *query.Q
		opts Options
		v    int // expected partition variable
	}{
		{"skew/zipf-hot", family(t, "skew/zipf-hot", 256, 1), Options{}, 0},
		{"skew/near-product", family(t, "skew/near-product", 128, 1), Options{}, 0},
		{"paper/triangle-product", paper.TriangleProduct(10), Options{}, 0},
		{"generic-v1", derivedFirstTriangle(12), Options{Algorithm: AlgGenericJoin}, 1},
		{"chain", paper.Fig1Skew(96), Options{Algorithm: AlgChain}, -1},
		{"csma", paper.DegreeTriangle(128, 2), Options{Algorithm: AlgCSMA}, -1},
	}
	for _, sh := range shapes {
		b := mustBind(t, sh.q)
		seqOpts := sh.opts
		seqOpts.Workers = 1
		full, _, err := b.Run(context.Background(), &seqOpts)
		if err != nil {
			t.Fatalf("%s: sequential run: %v", sh.name, err)
		}
		if full.Len() < 6 {
			t.Fatalf("%s: vacuous shape (%d rows)", sh.name, full.Len())
		}
		for _, sk := range handoffSinks {
			want := sk.run(b, seqOpts)
			for _, workers := range []int{2, 3, 8} {
				cell := fmt.Sprintf("%s/%s/w=%d", sh.name, sk.name, workers)
				parOpts := sh.opts
				parOpts.Workers, parOpts.MinParallelRows = workers, 1
				base := runtime.NumGoroutine()
				got := sk.run(b, parOpts)
				settleGoroutines(t, base, cell)

				if errKind(got.err) != errKind(want.err) {
					t.Fatalf("%s: error %v, sequential %v", cell, got.err, want.err)
				}
				if got.tripped != want.tripped {
					t.Fatalf("%s: budget tripped = %v, sequential %v", cell, got.tripped, want.tripped)
				}
				if sk.exactOutSize && got.outSize != want.outSize {
					t.Fatalf("%s: OutSize %d, sequential %d", cell, got.outSize, want.outSize)
				}
				if got.rows == nil {
					continue
				}
				if sk.exactOutSize && got.rows.Len() != want.rows.Len() {
					t.Fatalf("%s: %d rows, sequential %d", cell, got.rows.Len(), want.rows.Len())
				}
				if got.rows.Len() == 0 || got.rows.Len() > full.Len() {
					t.Fatalf("%s: delivered %d rows of %d", cell, got.rows.Len(), full.Len())
				}
				for i := 0; i < got.rows.Len(); i++ {
					if !slices.Equal(got.rows.Row(i), full.Row(i)) {
						t.Fatalf("%s: row %d = %v, sequential output has %v", cell, i, got.rows.Row(i), full.Row(i))
					}
				}
			}
		}
		// The shapes must reach the hand-offs they are here for.
		par := sh.opts
		par.Workers, par.MinParallelRows = 3, 1
		_, st, err := b.Run(context.Background(), &par)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers < 2 || st.Morsels < 2 || (sh.v >= 0 && st.PartitionVar != sh.v) {
			t.Fatalf("%s: not the parallel path it stands for: %+v", sh.name, st)
		}
	}
}

// panicSink panics on its first row.
type panicSink struct{}

func (panicSink) Push(rel.Tuple) bool { panic("boom: sink failure") }

// countingTriangle is the complete n×n triangle R(x,y), S(y,z), T(z,x) with
// a UDF xy → w that reports each call's x: the calls made so far measure
// how far the descents have got.
func countingTriangle(n int, onCall func(x int64)) *query.Q {
	q := query.New("x", "y", "z", "w")
	r, s, tt := rel.New("R", 0, 1), rel.New("S", 1, 2), rel.New("T", 2, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Add(int64(i), int64(j))
			s.Add(int64(i), int64(j))
			tt.Add(int64(i), int64(j))
		}
	}
	q.AddRel(r)
	q.AddRel(s)
	q.AddRel(tt)
	q.FDs.Add(varset.Of(0, 1), varset.Of(3), -1, map[int]fd.UDF{3: func(args []int64) int64 {
		onCall(args[0])
		return args[0] + args[1]
	}})
	return q
}

// TestSinkPanicInDirectMorsel: a sink that panics while the frontier morsel
// is streaming into it straight from the descent fails the run with one
// *PanicError raised on that worker, and the sibling workers are cancelled
// mid-descent instead of finishing the schedule.
func TestSinkPanicInDirectMorsel(t *testing.T) {
	var calls atomic.Int64
	b := mustBind(t, countingTriangle(96, func(int64) { calls.Add(1) }))
	if _, err := b.RunInto(context.Background(), &Options{Algorithm: AlgGenericJoin, Workers: 1}, &rel.CountSink{}); err != nil {
		t.Fatal(err)
	}
	full := calls.Swap(0)
	base := runtime.NumGoroutine()
	_, err := b.RunInto(context.Background(), &Options{Algorithm: AlgGenericJoin, Workers: 4, MinParallelRows: 1}, panicSink{})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if stack := string(pe.Stack); !strings.Contains(stack, "frontier).Push") || !strings.Contains(stack, "wcoj.") {
		t.Fatalf("panic did not come from a directly streaming morsel:\n%s", stack)
	}
	settleGoroutines(t, base, "sink panic")
	if done := calls.Load(); done*2 >= full {
		t.Fatalf("%d of a full run's %d UDF calls were made after the first row panicked: the siblings were not cancelled", done, full)
	}
}

// TestParallelCountAllocatesPerMorsel: a bare CountSink makes every morsel
// count into its own sink, so a warm parallel count allocates per morsel
// (descent scratch), never per row: no run is buffered, nothing is merged.
func TestParallelCountAllocatesPerMorsel(t *testing.T) {
	b := mustBind(t, family(t, "skew/near-product", 1024, 1))
	opts := &Options{Workers: 2}
	var warm rel.CountSink
	st, err := b.RunInto(context.Background(), opts, &warm)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || warm.N < 10000 {
		t.Fatalf("precondition: parallel run with a large output, got %d rows, %+v", warm.N, st)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var c rel.CountSink
	_, err = b.RunInto(context.Background(), opts, &c)
	runtime.ReadMemStats(&after)
	if err != nil || c.N != warm.N {
		t.Fatalf("warm count = %d, %v; want %d", c.N, err, warm.N)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 64<<10 {
		t.Fatalf("parallel count of %d rows over %d morsels allocated %d bytes, want under 64 KB (%d row bytes)",
			c.N, st.Morsels, delta, tupleBytes(c.N, 3))
	}
}

// firstPushSink records a counter's value when its first row arrives.
type firstPushSink struct {
	calls   *atomic.Int64
	atFirst int64
	n       int
}

func (s *firstPushSink) Push(rel.Tuple) bool {
	if s.n++; s.n == 1 {
		s.atFirst = s.calls.Load()
	}
	return true
}

// TestFirstRowBeforeFirstMorselCompletes: the frontier morsel streams from
// the descent, so the sink's first row arrives after the first successful
// descent, not after a morsel's worth of work. Progress is measured in UDF
// calls for x = 0 — the first morsel's first value, so whatever the sibling
// worker does meanwhile does not count — at the first Push, against the
// calls the whole run makes for it.
func TestFirstRowBeforeFirstMorselCompletes(t *testing.T) {
	var calls atomic.Int64
	n := 48
	q := countingTriangle(n, func(x int64) {
		if x == 0 {
			calls.Add(1)
		}
	})
	b := mustBind(t, q)
	sink := &firstPushSink{calls: &calls}
	st, err := b.RunInto(context.Background(), &Options{Algorithm: AlgGenericJoin, Workers: 2, MinParallelRows: 1}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 2 || sink.n != n*n*n {
		t.Fatalf("precondition: parallel run delivering %d rows, got %d, %+v", n*n*n, sink.n, st)
	}
	if total := calls.Load(); sink.atFirst*10 >= total {
		t.Fatalf("first row arrived after %d of %d UDF calls for x = 0: its morsel ran to completion before emitting", sink.atFirst, total)
	}
}

// TestGenericMorselsDoNotRepeatWork: generic-join plans split on the
// descent's first variable, so the morsels partition the sequential search
// tree instead of each re-enumerating the levels above the split variable:
// summed over the morsels, the descent extends about as many candidates as
// the sequential run (Generic-Join's cost measure), not a multiple. The same
// holds for an auto run's attempt on FD instances it fits: on 2 and 4
// workers its morsels' counted work is about the sequential attempt's.
func TestGenericMorselsDoNotRepeatWork(t *testing.T) {
	// A star whose hub h (variable 1) sits in all three relations, under
	// a leaf a (variable 0) that reaches every hub; few hubs have b/c rows.
	star := query.New("a", "h", "b", "c")
	r1, r2, r3 := rel.New("R1", 0, 1), rel.New("R2", 1, 2), rel.New("R3", 1, 3)
	for h := 0; h < 64; h++ {
		for a := 0; a < 400; a++ {
			r1.Add(int64(a), int64(h))
		}
		if h%8 == 0 {
			r2.Add(int64(h), int64(h+1))
			r3.Add(int64(h), int64(h+2))
		}
	}
	star.AddRel(r1)
	star.AddRel(r2)
	star.AddRel(r3)
	for _, tc := range []struct {
		name string
		q    *query.Q
	}{
		{"motif/path", family(t, "motif/path", 256, 1)},
		{"star-hub-1", star},
	} {
		for _, r := range tc.q.Rels {
			r.SortDedup()
		}
		seq, err := wcoj.GenericJoinInto(context.Background(), tc.q, wcoj.DefaultOrder(tc.q), &rel.CountSink{})
		if err != nil {
			t.Fatal(err)
		}
		b := mustBind(t, tc.q)
		var c rel.CountSink
		st, err := b.RunInto(context.Background(), &Options{Algorithm: AlgGenericJoin, Workers: 4, MinParallelRows: 1}, &c)
		if err != nil {
			t.Fatal(err)
		}
		if st.Morsels < 8 {
			t.Fatalf("%s: precondition: a fine schedule, got %+v", tc.name, st)
		}
		if st.PartitionVar != 0 {
			t.Errorf("%s: split on variable %d, not the descent's first", tc.name, st.PartitionVar)
		}
		if float64(st.work) > 1.1*float64(seq.Work()) {
			t.Errorf("%s: %d morsels did %d counted work, the sequential descent %d: morsels repeat work",
				tc.name, st.Morsels, st.work, seq.Work())
		}
	}

	fig4, _ := paper.Fig4Instance(216)
	for _, tc := range []struct {
		name string
		q    *query.Q
	}{
		{"paper/fig4", fig4},
		{"paper/four-cycle-key", family(t, "paper/four-cycle-key", 2048, 1)},
		{"paper/degree-triangle", family(t, "paper/degree-triangle", 2048, 1)},
	} {
		var seq int
		for _, workers := range []int{1, 2, 4} {
			b := mustBind(t, tc.q)
			st, err := b.RunInto(context.Background(), &Options{Workers: workers, MinParallelRows: 1}, &rel.CountSink{})
			if err != nil {
				t.Fatal(err)
			}
			if st.Ran != AlgGenericJoin || st.Workers != workers || b.won.Load() != attemptFit {
				t.Fatalf("%s: ran %s on %d workers, decided %v; want a fitting attempt on %d", tc.name, st.Ran, st.Workers, b.won.Load(), workers)
			}
			if workers == 1 {
				seq = st.work
			} else if float64(st.work) > 1.1*float64(seq) {
				t.Errorf("%s: the attempt on %d workers did %d counted work, on one %d", tc.name, workers, st.work, seq)
			}
		}
	}
}
