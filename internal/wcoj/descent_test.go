package wcoj

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/work"
)

// perRow hides a sink's PushRun: the descent has to push row by row, the way
// it does for every sink that is not a bare collector or counter.
type perRow struct{ s rel.Sink }

func (p perRow) Push(t rel.Tuple) bool { return p.s.Push(t) }

// family builds the catalog family's instance at the given size, seed 1.
func family(t *testing.T, name string, size int) *query.Q {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f.Build(scenario.Params{Size: size, Seed: 1})
		}
	}
	t.Fatalf("unknown scenario family %q", name)
	return nil
}

// ordersOf returns every order of q's variables when there are at most four,
// else DefaultOrder plus 20 seeded permutations.
func ordersOf(q *query.Q) [][]int {
	if q.K > 4 {
		orders := [][]int{DefaultOrder(q)}
		rng := rand.New(rand.NewSource(int64(q.K)))
		for len(orders) <= 20 {
			orders = append(orders, rng.Perm(q.K))
		}
		return orders
	}
	var orders [][]int
	var permute func(prefix []int, used uint)
	permute = func(prefix []int, used uint) {
		if len(prefix) == q.K {
			orders = append(orders, append([]int(nil), prefix...))
			return
		}
		for v := 0; v < q.K; v++ {
			if used&(1<<v) == 0 {
				permute(append(prefix, v), used|1<<v)
			}
		}
	}
	permute(nil, 0)
	return orders
}

// checkDescent runs q under order into a collector, a counter, a per-row
// sink and three limits, and compares all of it with want, the naive answer:
// same rows in the same order whichever way they leave the descent, and the
// same counted work unless a limit cut the descent short.
func checkDescent(t *testing.T, label string, q *query.Q, order []int, want *rel.Relation) {
	t.Helper()
	ctx := context.Background()
	attrs := q.AllVars().Members()
	col := rel.NewCollect("Q", attrs...)
	st, err := GenericJoinInto(ctx, q, order, col)
	var cnt rel.CountSink
	stCount, errCount := GenericJoinInto(ctx, q, order, &cnt)
	rows := rel.NewCollect("Q", attrs...)
	stRows, errRows := GenericJoinInto(ctx, q, order, perRow{rows})
	if (err != nil) != (errCount != nil) || (err != nil) != (errRows != nil) {
		t.Fatalf("%s order %v: errors differ by sink: collect %v, count %v, per row %v", label, order, err, errCount, errRows)
	}
	if err != nil {
		return // a variable no earlier one determines: every sink was told so
	}
	if !rel.Identical(col.R, want) {
		t.Fatalf("%s order %v: collected %d rows, naive has %d (or their order differs)", label, order, col.R.Len(), want.Len())
	}
	if cnt.N != want.Len() || !rel.Identical(rows.R, want) {
		t.Fatalf("%s order %v: counted %d, pushed %d row by row, naive has %d", label, order, cnt.N, rows.R.Len(), want.Len())
	}
	if *stCount != *st || *stRows != *st {
		t.Fatalf("%s order %v: work differs by sink: collect %+v, count %+v, per row %+v", label, order, *st, *stCount, *stRows)
	}
	for _, k := range []int{0, 1, 7} {
		lim := rel.NewCollect("Q", attrs...)
		stLim, err := GenericJoinInto(ctx, q, order, rel.Limit(lim, k))
		if err != nil {
			t.Fatalf("%s order %v limit %d: %v", label, order, k, err)
		}
		n := min(k, want.Len())
		if lim.R.Len() != n {
			t.Fatalf("%s order %v limit %d: %d rows", label, order, k, lim.R.Len())
		}
		for i := 0; i < n; i++ {
			if fmt.Sprint(lim.R.Row(i)) != fmt.Sprint(want.Row(i)) {
				t.Fatalf("%s order %v limit %d: row %d is %v, want %v", label, order, k, i, lim.R.Row(i), want.Row(i))
			}
		}
		if stLim.Extensions > st.Extensions || stLim.Lookups > st.Lookups {
			t.Fatalf("%s order %v limit %d: did more work (%+v) than the full run (%+v)", label, order, k, *stLim, *st)
		}
	}
}

// TestCompiledDescentMatchesNaive drives the compiled descent over the whole
// small-tier catalog — FD-free motifs and skew families, and the FD-bearing
// paper instances (Fig. 1, Fig. 5, Fig. 9, M3) and fd/dag, fd/cycle — under
// every order (K ≤ 4) or DefaultOrder and 20 permutations. Orders other than
// the default one are where a derived variable precedes, follows or splits
// the levels of the relations that store it.
func TestCompiledDescentMatchesNaive(t *testing.T) {
	runs, fds := 0, 0
	for _, in := range scenario.Instances(scenario.TierSmall) {
		q := in.Build()
		want := naive.Evaluate(q)
		for _, order := range ordersOf(q) {
			checkDescent(t, in.Name, q, order, want)
			runs++
		}
		if len(q.FDs.FDs) > 0 {
			fds++
		}
	}
	if runs < 400 || fds < 6 {
		t.Fatalf("only %d (instance, order) pairs over %d FD-bearing instances: the catalog shrank", runs, fds)
	}
}

// FuzzGenericJoinOrder is the same comparison on a random small shape (random
// binary / ternary relations with an optional UDF FD, or a path with guarded
// keys), random data and a random order.
func FuzzGenericJoinOrder(f *testing.F) {
	f.Add(int64(2016), 4, 3, 20, 4, true, int64(1))
	f.Add(int64(516), 3, 2, 12, 3, false, int64(2))
	f.Add(int64(7), 5, 4, 30, 6, true, int64(3))
	f.Add(int64(1), 3, 1, 0, 2, false, int64(4)) // empty relations
	f.Add(int64(42), 4, 0, 8, 1, true, int64(5)) // guarded keys on a path
	f.Add(int64(9), 1, 1, 9, 5, false, int64(6)) // one variable: the run has an empty prefix
	f.Fuzz(func(t *testing.T, seed int64, nVars, nRels, nRows, domain int, withFDs bool, orderSeed int64) {
		fold := func(x, n int) int { return int(uint(x) % uint(n)) }
		nVars = 1 + fold(nVars, 5) // 1..5
		nRels = fold(nRels, 4)     // 0 selects the keyed path
		nRows = fold(nRows, 32)
		domain = 1 + fold(domain, 6)
		rng := rand.New(rand.NewSource(seed))
		var q *query.Q
		if nRels == 0 && nVars >= 2 {
			q = scenario.RandomSimpleKeyQuery(rng, nVars, 1+nRows)
		} else {
			q = scenario.RandomQuery(rng, nVars, max(nRels, 1), nRows, domain, withFDs)
		}
		if err := q.Validate(); err != nil {
			t.Skip(err) // random keyed data may break its own key
		}
		order := rand.New(rand.NewSource(orderSeed)).Perm(q.K)
		checkDescent(t, fmt.Sprintf("seed %d", seed), q, order, naive.Evaluate(q))
	})
}

// polledCtx counts the descent's polls of its context and says when the
// first one happened.
type polledCtx struct {
	context.Context
	polls   atomic.Int64
	started chan struct{}
}

func (c *polledCtx) Err() error {
	if c.polls.Add(1) == 1 {
		close(c.started)
	}
	return c.Context.Err()
}

// cancelOnPush cancels the run's context on its first row and counts the
// rows that still arrive.
type cancelOnPush struct {
	cancel context.CancelFunc
	after  int
}

func (c *cancelOnPush) Push(rel.Tuple) bool {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
		return true
	}
	c.after++
	return true
}

// TestCancelDuringRunEmission: rows that leave in runs count towards the
// cancellation poll like rows pushed one by one: each costs an extension. On
// the 31³ product the descent makes 993 steps for 29 791 rows, so a poll
// that counted steps alone would look once in all.
func TestCancelDuringRunEmission(t *testing.T) {
	q := family(t, "worst/agm-product", 1024)
	order := DefaultOrder(q)

	// A counter takes the rows in runs of 31 and still polls every
	// work.Interval of them.
	quiet := &polledCtx{Context: context.Background(), started: make(chan struct{})}
	var n rel.CountSink
	if _, err := GenericJoinInto(quiet, q, order, &n); err != nil || n.N != 31*31*31 {
		t.Fatalf("uncancelled count: %d rows, %v", n.N, err)
	}
	if got, want := int(quiet.polls.Load()), n.N/work.Interval; got < want {
		t.Fatalf("%d rows in runs were polled %d times, want at least %d", n.N, got, want)
	}

	// Cancelled from a second goroutine once the run is under way. Whether
	// the cancel lands before the run ends is the scheduler's call, so try
	// again until it does.
	cancelled := false
	for try := 0; try < 200 && !cancelled; try++ {
		ctx, cancel := context.WithCancel(context.Background())
		pc := &polledCtx{Context: ctx, started: make(chan struct{})}
		done := make(chan struct{})
		go func() {
			<-pc.started
			cancel()
			close(done)
		}()
		_, err := GenericJoinInto(pc, q, order, &rel.CountSink{})
		<-done
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled run returned %v", err)
		}
		cancelled = err != nil
	}
	if !cancelled {
		t.Fatal("no run in 200 saw a cancel issued right after its first poll")
	}

	// Cancelled by the sink itself on its first row: the per-row path.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnPush{cancel: cancel}
	if _, err := GenericJoinInto(ctx, q, order, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("run cancelled by its sink returned %v", err)
	}
	if sink.after > work.Interval {
		t.Fatalf("%d rows arrived after the cancel, want at most %d", sink.after, work.Interval)
	}
}

// TestCountRunAllocations is the allocation ceiling of a warm descent: the
// level tables come from a handful of slices, not one per relation and depth
// (23 allocations before the levels were compiled).
func TestCountRunAllocations(t *testing.T) {
	q := family(t, "motif/clique4", 1024)
	order := DefaultOrder(q)
	run := func() {
		if _, err := GenericJoinInto(context.Background(), q, order, &rel.CountSink{}); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the tries
	if n := testing.AllocsPerRun(20, run); n > 18 {
		t.Fatalf("a warm count on motif/clique4@1024 allocates %v times, want at most 18", n)
	}
}

// TestPrefixCostsAPrefix pins what a limit costs under an order that leaves
// the identity order after a prefix: Fig. 9's DefaultOrder is D E F M N
// (P, S, T, O derived), so its rows leave a (D, E, F) group at a time, and a
// LIMIT-k run stops within the k-th group instead of paying for the whole
// descent.
func TestPrefixCostsAPrefix(t *testing.T) {
	q := family(t, "paper/fig9", 64)
	order := DefaultOrder(q)
	if want := []int{0, 1, 2, 6, 3, 4, 7, 5, 8}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("Fig. 9's order is %v, want %v", order, want)
	}
	for _, tc := range []struct {
		limit int
		want  Stats
	}{
		{1, Stats{Extensions: 5, Lookups: 4, Stopped: true}},
		{7, Stats{Extensions: 23, Lookups: 16, Stopped: true}},
		{1 << 20, Stats{Extensions: 1608, Lookups: 1096}},
	} {
		lim := rel.NewCollect("Q", q.AllVars().Members()...)
		st, err := GenericJoinInto(context.Background(), q, order, rel.Limit(lim, tc.limit))
		if err != nil {
			t.Fatal(err)
		}
		if *st != tc.want {
			t.Fatalf("Fig. 9 at limit %d: %+v, want %+v", tc.limit, *st, tc.want)
		}
	}
}

// blockTriangles is the triangle on b disjoint 3 × 3 products: under the
// order x z y each x is a group of nine rows that leave the descent out of
// order, whatever b is.
func blockTriangles(b int) *query.Q {
	q := query.New("x", "y", "z")
	for _, attrs := range [][]int{{0, 1}, {1, 2}, {2, 0}} {
		r := rel.New("R", attrs...)
		for blk := range b {
			for i := range 3 {
				for j := range 3 {
					r.Add(rel.Value(3*blk+i), rel.Value(3*blk+j))
				}
			}
		}
		q.AddRel(r)
	}
	return q
}

// TestGroupFlushAllocations: a group's flush reuses the group's storage, so
// a warm count allocates the same on 8 groups as on 64.
func TestGroupFlushAllocations(t *testing.T) {
	allocs := func(b int) float64 {
		q := blockTriangles(b)
		run := func() {
			var n rel.CountSink
			if _, err := GenericJoinInto(context.Background(), q, []int{0, 2, 1}, &n); err != nil || n.N != 27*b {
				t.Fatalf("%d blocks: %d rows, %v", b, n.N, err)
			}
		}
		run() // builds the tries
		return testing.AllocsPerRun(20, run)
	}
	if few, many := allocs(8), allocs(64); few != many {
		t.Fatalf("a warm count allocates %v times on 8 groups and %v on 64", few, many)
	}
}
