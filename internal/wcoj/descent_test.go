package wcoj

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/varset"
	"repro/internal/work"
)

// perRow hides a sink's PushRun: the descent has to push row by row, the way
// it does for every sink that is not a bare collector or counter.
type perRow struct{ s rel.Sink }

func (p perRow) Push(t rel.Tuple) bool { return p.s.Push(t) }

// family builds the catalog family's instance at the given size, seed 1.
func family(t *testing.T, name string, size int) *query.Q {
	t.Helper()
	return build(t, name, scenario.Params{Size: size, Seed: 1})
}

// build builds the catalog family's instance at p.
func build(t *testing.T, name string, p scenario.Params) *query.Q {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f.Build(p)
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

// TestCountedWorkPinned pins generic join's counted work into a count sink:
// under DefaultOrder on the 18 fd-warm and wcoj-warm instances of the
// benchmark (seed 1), and under one other order on the first small-tier
// instance of every family. The work unit prices attempts and E15's
// verdicts, so a change to the descent that moves it moves them too.
func TestCountedWorkPinned(t *testing.T) {
	for _, tc := range []struct {
		family           string
		p                scenario.Params
		order            []int // nil: DefaultOrder
		extends, lookups int
	}{
		// fd-warm
		{"paper/fig1-skew", scenario.Params{Size: 2048, Seed: 1}, nil, 1052670, 2101245},
		{"paper/fig1-quasi", scenario.Params{Size: 256, Seed: 1}, nil, 4368, 8448},
		{"paper/m3-mod", scenario.Params{Size: 64, Seed: 1}, nil, 4160, 4096},
		{"paper/fig4", scenario.Params{Size: 216, Seed: 1}, nil, 1548, 7164},
		{"paper/colored-triangle", scenario.Params{Size: 1024, Seed: 1}, nil, 5376, 9472},
		{"paper/fig9", scenario.Params{Size: 64, Seed: 1}, nil, 1608, 1096},
		{"paper/degree-triangle", scenario.Params{Size: 2048, Seed: 1}, nil, 10752, 10752},
		{"paper/simple-fd-chain", scenario.Params{Size: 64, Seed: 1}, nil, 6024, 1886},
		{"paper/four-cycle-key", scenario.Params{Size: 2048, Seed: 1}, nil, 6144, 10240},
		{"fd/dag", scenario.Params{Size: 1024, Seed: 1}, nil, 801, 4806},
		// wcoj-warm
		{"paper/triangle-product", scenario.Params{Size: 32, Seed: 1}, nil, 33824, 33824},
		{"worst/agm-product", scenario.Params{Size: 1024, Seed: 1}, nil, 30783, 30783},
		{"skew/zipf-triangle", scenario.Params{Size: 16384, Seed: 1}, nil, 60354, 60354},
		{"skew/zipf-hot", scenario.Params{Size: 2048, Seed: 1}, nil, 37349, 37349},
		{"skew/near-product", scenario.Params{Size: 1024, Seed: 1}, nil, 38212, 38212},
		{"motif/clique4", scenario.Params{Size: 1024, Seed: 1}, nil, 44645, 56444},
		{"motif/cycle4", scenario.Params{Size: 512, Seed: 1}, nil, 44848, 44848},
		{"motif/path", scenario.Params{Size: 256, Seed: 1}, nil, 12097, 1733},
		// small tier, one order past DefaultOrder a family
		{"paper/triangle-product", scenario.Params{Size: 4, Seed: 0}, []int{2, 1, 0}, 84, 84},
		{"paper/triangle-random", scenario.Params{Size: 48, Seed: 1}, []int{2, 1, 0}, 141, 141},
		{"paper/fig1-skew", scenario.Params{Size: 64, Seed: 0}, []int{3, 2, 1, 0}, 1150, 2173},
		{"paper/fig1-quasi", scenario.Params{Size: 16, Seed: 0}, []int{3, 2, 1, 0}, 84, 144},
		{"paper/m3-mod", scenario.Params{Size: 24, Seed: 0}, []int{2, 1, 0}, 600, 576},
		{"paper/fig4", scenario.Params{Size: 64, Seed: 0}, []int{5, 4, 2, 0, 1, 3}, 336, 1488},
		{"paper/fig9", scenario.Params{Size: 16, Seed: 0}, []int{0, 7, 6, 5, 1, 2, 3, 8, 4}, 84, 276},
		{"paper/fig5", scenario.Params{Size: 16, Seed: 0}, []int{1, 0, 2}, 272, 0},
		{"paper/degree-triangle", scenario.Params{Size: 64, Seed: 0}, []int{2, 1, 0}, 336, 336},
		{"paper/colored-triangle", scenario.Params{Size: 64, Seed: 0}, []int{2, 1, 0, 3, 4}, 336, 848},
		{"paper/four-cycle-key", scenario.Params{Size: 32, Seed: 0}, []int{3, 2, 1, 0}, 128, 128},
		{"paper/composite-key", scenario.Params{Size: 12, Seed: 0}, []int{2, 1, 0}, 311, 288},
		{"paper/simple-fd-chain", scenario.Params{Size: 48, Seed: 0}, []int{2, 1, 0, 3, 4}, 2700, 192},
		{"motif/path", scenario.Params{Size: 48, Seed: 1}, []int{3, 2, 1, 0}, 680, 166},
		{"motif/star", scenario.Params{Size: 48, Seed: 1}, []int{3, 2, 1, 0}, 5483, 4925},
		{"motif/clique4", scenario.Params{Size: 32, Seed: 1}, []int{3, 2, 1, 0}, 129, 233},
		{"motif/cycle4", scenario.Params{Size: 48, Seed: 1}, []int{3, 2, 1, 0}, 566, 566},
		{"skew/zipf-triangle", scenario.Params{Size: 48, Seed: 1}, []int{2, 1, 0}, 91, 91},
		{"skew/zipf-star", scenario.Params{Size: 32, Seed: 1}, []int{3, 2, 1, 0}, 2576, 2270},
		{"skew/zipf-hot", scenario.Params{Size: 48, Seed: 1}, []int{2, 1, 0}, 1254, 1254},
		{"skew/near-product", scenario.Params{Size: 48, Seed: 1}, []int{2, 1, 0}, 321, 321},
		{"fd/chain-guarded", scenario.Params{Size: 48, Seed: 1}, []int{2, 1, 0, 3, 4}, 76, 26},
		{"fd/dag", scenario.Params{Size: 32, Seed: 1}, []int{3, 2, 1, 0}, 104, 78},
		{"fd/cycle", scenario.Params{Size: 32, Seed: 1}, []int{2, 1, 0}, 23, 115},
		{"fd/random-udf", scenario.Params{Size: 24, Seed: 1}, []int{3, 2, 1, 0}, 59, 105},
		{"worst/agm-product", scenario.Params{Size: 32, Seed: 1}, []int{2, 1, 0}, 216, 216},
	} {
		q := build(t, tc.family, tc.p)
		order := tc.order
		if order == nil {
			order = DefaultOrder(q)
		}
		st, err := GenericJoinInto(context.Background(), q, order, &rel.CountSink{})
		if err != nil {
			t.Fatalf("%s@%d order %v: %v", tc.family, tc.p.Size, order, err)
		}
		if st.Extensions != tc.extends || st.Lookups != tc.lookups {
			t.Errorf("%s@%d order %v: %d extensions, %d lookups; want %d, %d", tc.family, tc.p.Size, order, st.Extensions, st.Lookups, tc.extends, tc.lookups)
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

// fuzzArgs is one seed entry of FuzzGenericJoinOrder.
type fuzzArgs struct {
	seed                        int64
	nVars, nRels, nRows, domain int
	withFDs                     bool
	stored                      int
	orderSeed                   int64
}

// fuzzSeeds are FuzzGenericJoinOrder's seed entries. The last ones reach a
// kind of level each, which TestFuzzSeedsReachEveryLevel checks.
var fuzzSeeds = []fuzzArgs{
	{2016, 4, 3, 20, 4, true, 0, 1},
	{516, 3, 2, 12, 3, false, 0, 2},
	{7, 5, 4, 30, 6, true, 0, 3},
	{1, 3, 1, 0, 2, false, 0, 4},   // empty relations
	{42, 4, 0, 8, 1, true, 0, 5},   // guarded keys on a path
	{9, 1, 1, 9, 5, false, 0, 6},   // one variable: a last level of 1 part, under an empty prefix
	{1, 3, 1, 24, 3, true, 2, 1},   // a derived-only level that binds
	{1, 3, 1, 24, 3, true, 1, 1},   // a derived-only level that fails
	{1, 4, 2, 24, 3, true, 0, 1},   // a group mark below a non-empty identity prefix; a limit stops mid-group
	{28, 3, 3, 24, 3, true, 0, 28}, // a last level of 2 parts
	{14, 8, 3, 31, 3, true, 0, 14}, // eight variables; a last level of 3 parts
}

// FuzzGenericJoinOrder is the same comparison on a random small shape (random
// binary / ternary relations with an optional UDF FD, or a path with guarded
// keys), random data and a random order. With stored at 1 or 2 the UDF's
// target is stored in no relation (storeNowhere), so an order that reaches it
// before the FD fires compiles a level with no parts: at 1 it fails there, at
// 2 the FD derives it from nothing.
func FuzzGenericJoinOrder(f *testing.F) {
	for _, a := range fuzzSeeds {
		f.Add(a.seed, a.nVars, a.nRels, a.nRows, a.domain, a.withFDs, a.stored, a.orderSeed)
	}
	f.Fuzz(func(t *testing.T, seed int64, nVars, nRels, nRows, domain int, withFDs bool, stored int, orderSeed int64) {
		q := fuzzShape(seed, nVars, nRels, nRows, domain, withFDs, stored)
		if err := q.Validate(); err != nil {
			t.Skip(err) // random keyed data may break its own key
		}
		order := rand.New(rand.NewSource(orderSeed)).Perm(q.K)
		checkDescent(t, fmt.Sprintf("seed %d", seed), q, order, naive.Evaluate(q))
	})
}

// fuzzShape folds FuzzGenericJoinOrder's arguments into range and builds
// the query they select.
func fuzzShape(seed int64, nVars, nRels, nRows, domain int, withFDs bool, stored int) *query.Q {
	fold := func(x, n int) int { return int(uint(x) % uint(n)) }
	nVars = 1 + fold(nVars, 8) // 1..8
	nRels = fold(nRels, 4)     // 0 selects the keyed path
	nRows = fold(nRows, 32)
	domain = 1 + fold(domain, 6)
	rng := rand.New(rand.NewSource(seed))
	if nRels == 0 && nVars >= 2 {
		return scenario.RandomSimpleKeyQuery(rng, nVars, 1+nRows)
	}
	q := scenario.RandomQuery(rng, nVars, max(nRels, 1), nRows, domain, withFDs)
	if s := fold(stored, 3); s > 0 && len(q.FDs.FDs) > 0 {
		q = storeNowhere(q, s == 2)
	}
	return q
}

// storeNowhere rebuilds q, whose one FD is a UDF, with the FD's target c
// stored in no relation: every relation loses c's column, and one left with
// none is dropped, so only the FD binds c. With constant set the FD derives c
// from nothing instead of from its arguments.
func storeNowhere(q *query.Q, constant bool) *query.Q {
	f := q.FDs.FDs[0]
	c := f.To.Min()
	out := query.New(q.Names...)
	for _, r := range q.Rels {
		if keep := r.VarSet().Remove(c); !keep.IsEmpty() {
			out.AddRel(r.Project(keep))
		}
	}
	if constant {
		out.FDs.AddUDF(varset.Empty, c, func([]Value) Value { return 1 })
	} else {
		out.FDs.AddUDF(f.From, c, f.Fns[c])
	}
	return out
}

// levelKinds runs a's query under a's order and names the kinds of level
// the descent reached, as fuzzSeeds' comments name them.
func levelKinds(a fuzzArgs) map[string]bool {
	q := fuzzShape(a.seed, a.nVars, a.nRels, a.nRows, a.domain, a.withFDs, a.stored)
	if q.Validate() != nil {
		return nil
	}
	order := rand.New(rand.NewSource(a.orderSeed)).Perm(q.K)
	col := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, order, col)
	x := &descent{sink: &rel.CountSink{}}
	x.compile(q, order)
	x.buffer(q, order)
	rows := col.R.Len()
	kinds := map[string]bool{}
	for i, lv := range x.levels {
		switch {
		case lv.group && i > 0 && rows > 0:
			kinds["a group mark below a non-empty identity prefix"] = true
		case !lv.group && len(lv.parts) == 0 && lv.err != nil && err != nil:
			kinds["a derived-only level that fails"] = true
		case !lv.group && len(lv.parts) == 0 && err == nil && rows > 0:
			kinds["a derived-only level that binds"] = true
		case lv.run && rows > 0:
			kinds[fmt.Sprintf("a last level of %d part(s)", len(lv.parts))] = true
		}
	}
	// A limit of 1 or 7 rows stops mid-group when the row past it has the
	// same identity prefix.
	k := 0
	for k < q.K && order[k] == k {
		k++
	}
	for _, n := range []int{1, 7} {
		if x.grp != nil && n < rows && slices.Equal(col.R.Row(n - 1)[:k], col.R.Row(n)[:k]) {
			kinds["a limit stops mid-group"] = true
		}
	}
	return kinds
}

// TestFuzzSeedsReachEveryLevel: FuzzGenericJoinOrder's seed entries reach
// every kind of level the descent compiles, so a short fuzz run starts from
// all of them.
func TestFuzzSeedsReachEveryLevel(t *testing.T) {
	reached := map[string]bool{}
	for _, a := range fuzzSeeds {
		kinds := levelKinds(a)
		t.Logf("%+v: %v", a, kinds)
		maps.Copy(reached, kinds)
	}
	for _, kind := range []string{
		"a derived-only level that binds",
		"a derived-only level that fails",
		"a group mark below a non-empty identity prefix",
		"a last level of 1 part(s)",
		"a last level of 2 part(s)",
		"a last level of 3 part(s)",
		"a limit stops mid-group",
	} {
		if !reached[kind] {
			t.Errorf("no seed entry reaches %s", kind)
		}
	}
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
