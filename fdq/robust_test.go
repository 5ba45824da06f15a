package fdq_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/fdq"
	"repro/internal/faultinject"
)

// denseCatalog returns a catalog whose relation E holds the complete
// n×n grid — worst-case-style data under which a two-hop path query
// produces n³ rows.
func denseCatalog(t *testing.T, n int) *fdq.Catalog {
	t.Helper()
	cat := fdq.NewCatalog()
	rows := make([][]fdq.Value, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows, []fdq.Value{int64(i), int64(j)})
		}
	}
	if err := cat.Define("E", []string{"a", "b"}, rows); err != nil {
		t.Fatal(err)
	}
	return cat
}

// pathQuery is the expensive shape: E(x,y) ⋈ E(y,z), n³ rows on dense E.
func pathQuery() *fdq.Q {
	return fdq.Query().Vars("x", "y", "z").Rel("E", "x", "y").Rel("E", "y", "z")
}

// scanQuery is the cheap shape: the single atom E(x,y), n² rows.
func scanQuery() *fdq.Q {
	return fdq.Query().Vars("x", "y").Rel("E", "x", "y")
}

// logBound reads the planner's certified bound for a shape, via an
// ungoverned session so governed sessions under test keep clean cache
// counters.
func logBound(t *testing.T, cat *fdq.Catalog, q *fdq.Q) float64 {
	t.Helper()
	ex, err := cat.Session().Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ex.LogBound) || math.IsInf(ex.LogBound, 0) {
		t.Fatalf("planner certified no finite bound (%v); test needs one", ex.LogBound)
	}
	return ex.LogBound
}

// TestGovernorReject: an over-budget query is refused before execution
// with the typed bound-vs-budget error; an under-budget query on the same
// session runs normally.
func TestGovernorReject(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	cheap, costly := logBound(t, cat, scanQuery()), logBound(t, cat, pathQuery())
	if cheap >= costly {
		t.Fatalf("calibration broken: scan bound %v ≥ path bound %v", cheap, costly)
	}
	budget := (cheap + costly) / 2
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxLogBound(budget))))

	for name, run := range map[string]func() error{
		"Collect": func() error { _, err := sess.Collect(ctx, pathQuery()); return err },
		"Count":   func() error { _, err := sess.Count(ctx, pathQuery()); return err },
		"Query":   func() error { _, err := sess.Query(ctx, pathQuery()); return err },
	} {
		err := run()
		if !errors.Is(err, fdq.ErrBoundExceeded) {
			t.Fatalf("%s: want ErrBoundExceeded, got %v", name, err)
		}
		var be *fdq.BoundExceededError
		if !errors.As(err, &be) || be.LogBound != costly || be.Budget != budget {
			t.Fatalf("%s: error payload %+v, want bound %v budget %v", name, be, costly, budget)
		}
	}

	got, err := sess.Collect(ctx, scanQuery())
	if err != nil {
		t.Fatalf("under-budget query rejected: %v", err)
	}
	if len(got) != 64 {
		t.Fatalf("scan returned %d rows, want 64", len(got))
	}
}

// TestGovernorQueueSerializes: under PolicyQueue with the budget at the
// expensive shape's bound, two expensive queries cannot run concurrently —
// the second blocks until the first finishes (or its context expires) —
// and a queued run reports its wait.
func TestGovernorQueueSerializes(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	budget := logBound(t, cat, pathQuery())
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(
		fdq.WithMaxLogBound(budget), fdq.WithPolicy(fdq.PolicyQueue))))

	// Hold the semaphore: an unconsumed iterator's producer parks on the
	// bounded channel (512 rows ≫ the buffer), keeping its admission.
	rows, err := sess.Query(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}

	// A second expensive query needs the full capacity: it must queue, and
	// its context expiring while queued surfaces as that context's error.
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := sess.Count(short, pathQuery()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query with expired ctx returned %v", err)
	}

	// A queued query admitted after the holder finishes completes and
	// reports its queue wait.
	type res struct {
		n  int
		st *fdq.RunStats
		e  error
	}
	done := make(chan res, 1)
	go func() {
		r2, err := sess.Query(ctx, pathQuery())
		if err != nil {
			done <- res{e: err}
			return
		}
		n := 0
		for r2.Next() {
			n++
		}
		done <- res{n: n, st: r2.Stats(), e: r2.Err()}
	}()
	time.Sleep(20 * time.Millisecond) // let it reach the queue
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.e != nil {
		t.Fatal(r.e)
	}
	if r.n != 512 {
		t.Fatalf("queued query delivered %d rows, want 512", r.n)
	}
	if r.st == nil || r.st.QueueWait <= 0 {
		t.Fatalf("queued run stats %+v: want QueueWait > 0", r.st)
	}
}

// TestGovernorDegradeLimit: PolicyDegrade with a row cap runs over-budget
// queries as LIMIT-k — the true k-prefix of the full answer — and marks
// them degraded; under-budget queries are untouched.
func TestGovernorDegradeLimit(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	cheap, costly := logBound(t, cat, scanQuery()), logBound(t, cat, pathQuery())
	budget := (cheap + costly) / 2
	full, err := cat.Session().Collect(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(
		fdq.WithMaxLogBound(budget), fdq.WithPolicy(fdq.PolicyDegrade), fdq.WithDegradeLimit(5))))

	got, err := sess.Collect(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, full[:5], slices.Equal) {
		t.Fatalf("degraded Collect is not the 5-prefix of the answer: %v", got)
	}

	rows, err := sess.Query(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if st := rows.Stats(); n != 5 || st == nil || !st.Degraded {
		t.Fatalf("degraded Query: %d rows, stats %+v", n, st)
	}

	// Under budget: full answer, not degraded.
	scan, err := sess.Collect(ctx, scanQuery())
	if err != nil || len(scan) != 64 {
		t.Fatalf("under-budget query degraded: %d rows, err %v", len(scan), err)
	}
}

// TestGovernorDegradeCountOnly: with the default degrade limit (0), an
// over-budget query delivers no rows — but still counts in full, both via
// Count and via the iterator's Stats.
func TestGovernorDegradeCountOnly(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	budget := logBound(t, cat, pathQuery()) - 0.5
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(
		fdq.WithMaxLogBound(budget), fdq.WithPolicy(fdq.PolicyDegrade))))

	got, err := sess.Collect(ctx, pathQuery())
	if err != nil || len(got) != 0 {
		t.Fatalf("COUNT-only Collect: %d rows, err %v", len(got), err)
	}
	n, err := sess.Count(ctx, pathQuery())
	if err != nil || n != 512 {
		t.Fatalf("COUNT-only Count = %d, %v; want 512", n, err)
	}
	rows, err := sess.Query(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("COUNT-only iterator delivered a row")
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if st := rows.Stats(); st == nil || !st.Degraded || st.Rows != 512 {
		t.Fatalf("COUNT-only stats %+v, want Degraded with 512 rows counted", st)
	}
}

// TestGovernorQueryTimeout: the governor's per-query deadline reaches the
// executors' cancellation checks — a slow UDF query aborts with
// context.DeadlineExceeded instead of running to completion.
func TestGovernorQueryTimeout(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 24)
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(
		fdq.WithQueryTimeout(5*time.Millisecond))))
	slow := fdq.Query().Vars("x", "y", "w").Rel("E", "x", "y").
		UDF("slow", "x,y", "w", func(args []fdq.Value) fdq.Value {
			time.Sleep(200 * time.Microsecond)
			return args[0] + args[1]
		})
	if _, err := sess.Collect(ctx, slow); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// TestGovernorMaxRows: tripping the governor's delivered-row budget is an
// error (unlike Limit), counting is exempt, and a Limit below the budget
// never trips it.
func TestGovernorMaxRows(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxRows(10))))

	_, err := sess.Collect(ctx, pathQuery())
	if !errors.Is(err, fdq.ErrRowsExceeded) {
		t.Fatalf("want ErrRowsExceeded, got %v", err)
	}
	var re *fdq.RowsExceededError
	if !errors.As(err, &re) || re.Limit != 10 {
		t.Fatalf("error payload %+v", re)
	}

	got, err := sess.Collect(ctx, pathQuery().Limit(5))
	if err != nil || len(got) != 5 {
		t.Fatalf("within-budget LIMIT run: %d rows, err %v", len(got), err)
	}
	if n, err := sess.Count(ctx, pathQuery()); err != nil || n != 512 {
		t.Fatalf("Count should be exempt from the row budget: %d, %v", n, err)
	}

	rows, err := sess.Query(ctx, pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); !errors.Is(err, fdq.ErrRowsExceeded) {
		t.Fatalf("iterator over budget: err %v after %d rows", err, n)
	}
	if n != 10 {
		t.Fatalf("iterator delivered %d rows before tripping, want 10", n)
	}
}

// TestGovernorMaxMemory: the memory budget aborts a governed Collect with
// the typed error carrying the accounting.
func TestGovernorMaxMemory(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 8)
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxMemory(256))))
	_, err := sess.Collect(ctx, pathQuery())
	if !errors.Is(err, fdq.ErrMemoryExceeded) {
		t.Fatalf("want ErrMemoryExceeded, got %v", err)
	}
	var me *fdq.MemoryExceededError
	if !errors.As(err, &me) || me.Limit != 256 || me.Used <= me.Limit {
		t.Fatalf("error payload %+v", me)
	}
}

// fig1SkewCatalog defines Example 5.8's skew instance of the paper's
// running example: R = S = T = {(1,i), (i,1) : i ∈ [n/2]}.
func fig1SkewCatalog(t *testing.T, n int) *fdq.Catalog {
	t.Helper()
	var rows [][]fdq.Value
	for i := int64(1); i <= int64(n/2); i++ {
		rows = append(rows, []fdq.Value{1, i})
		if i != 1 {
			rows = append(rows, []fdq.Value{i, 1})
		}
	}
	cat := fdq.NewCatalog()
	for _, name := range []string{"R", "S", "T"} {
		if err := cat.Define(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// fig1Query is Eq. (1) with Example 5.5's UDFs u = f(x,z) = x and
// x = g(y,u) = u, run by the chain algorithm at three workers.
func fig1Query() *fdq.Q {
	return fdq.Query().Vars("x", "y", "z", "u").
		Rel("R", "x", "y").Rel("S", "y", "z").Rel("T", "z", "u").
		UDF("f", "x z", "u", func(a []fdq.Value) fdq.Value { return a[0] }).
		UDF("g", "y u", "x", func(a []fdq.Value) fdq.Value { return a[1] }).
		Alg("chain").Workers(3)
}

// TestGovernorMaxMemoryCoversBuffersPlusDeliveries: WithMaxMemory is one
// budget over partition buffers plus deliveries. A parallel chain run
// buffers every morsel and delivers every row, so a budget of 1.5× the
// output's bytes — which either half alone would fit — refuses it.
func TestGovernorMaxMemoryCoversBuffersPlusDeliveries(t *testing.T) {
	ctx := context.Background()
	cat := fig1SkewCatalog(t, 1024)
	out, st := collectWithStats(t, cat.Session(), fig1Query())
	if st.Workers != 3 || len(out) < 1024 {
		t.Fatalf("ungoverned run: %d rows, stats %+v", len(out), st)
	}
	limit := int64(len(out)) * 4 * 8 * 3 / 2
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxMemory(limit))))
	var me *fdq.MemoryExceededError
	if _, err := sess.Collect(ctx, fig1Query()); !errors.As(err, &me) || me.Limit != limit || me.Used <= limit {
		t.Fatalf("Collect under 1.5× the output's bytes: %v (%+v)", err, me)
	}
}

// settleGoroutines waits for the goroutine count to drop back to base,
// failing with a full stack dump if it doesn't.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d > %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestRowsCloseMidStreamNoLeak is the worker-drain regression test:
// closing a parallel iterator mid-stream on worst-case product-style data
// must stop the producer AND its partition workers — no goroutine may
// outlive the Close, and the session must answer the same query cleanly
// afterwards.
func TestRowsCloseMidStreamNoLeak(t *testing.T) {
	ctx := context.Background()
	// 28×28 dense triangle: 3·784 = 2352 input rows clears the parallel
	// threshold (2048); ~22k output rows dwarf the iterator buffer.
	n := 28
	cat := fdq.NewCatalog()
	rows := make([][]fdq.Value, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows, []fdq.Value{int64(i), int64(j)})
		}
	}
	for _, name := range []string{"R", "S", "T"} {
		if err := cat.Define(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	tri := func() *fdq.Q {
		return fdq.Query().Vars("x", "y", "z").
			Rel("R", "x", "y").Rel("S", "y", "z").Rel("T", "z", "x").Workers(4)
	}
	sess := cat.Session()

	base := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		r, err := sess.Query(ctx, tri())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && r.Next(); i++ {
		}
		if err := r.Close(); err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		settleGoroutines(t, base)
	}

	// The session still answers the same shape in full.
	if got, err := sess.Count(ctx, tri()); err != nil || got != n*n*n {
		t.Fatalf("post-close Count = %d, %v; want %d", got, err, n*n*n)
	}
}

// TestCacheNotPoisonedByAdmissionFailure: a rejected query's prepared
// shape stays cached and healthy — once the catalog shrinks under the
// budget, the very same session and shape run as a cache hit.
func TestCacheNotPoisonedByAdmissionFailure(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 16)
	budget := logBound(t, cat, pathQuery()) - 0.1
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxLogBound(budget))))

	if _, err := sess.Collect(ctx, pathQuery()); !errors.Is(err, fdq.ErrBoundExceeded) {
		t.Fatalf("want rejection, got %v", err)
	}
	if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("cache after rejection: %+v", st)
	}

	// Shrink E: the rebind at the new catalog version certifies a bound
	// under the budget, so the same shape is now admitted.
	if err := cat.Define("E", []string{"a", "b"}, [][]fdq.Value{{0, 1}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if lb := logBound(t, cat, pathQuery()); lb >= budget {
		t.Fatalf("shrunken bound %v still over budget %v", lb, budget)
	}
	got, err := sess.Collect(ctx, pathQuery())
	if err != nil {
		t.Fatalf("admitted re-run failed: %v", err)
	}
	want := [][]fdq.Value{{0, 1, 0}, {1, 0, 1}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("re-run rows %v, want %v", got, want)
	}
	if st := sess.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("cache after admitted re-run: %+v (rejection evicted the shape?)", st)
	}
}

// TestCacheNotPoisonedByPanic: a UDF panic fails exactly that execution;
// the cached shape survives and the next run of the same shape hits the
// cache and succeeds.
func TestCacheNotPoisonedByPanic(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 4)
	sess := cat.Session()
	var fire atomic.Bool
	q := func() *fdq.Q {
		return fdq.Query().Vars("x", "y", "w").Rel("E", "x", "y").
			UDF("maybe-boom", "x,y", "w", func(args []fdq.Value) fdq.Value {
				if fire.Load() {
					panic("boom: flag-controlled UDF")
				}
				return args[0] * args[1]
			})
	}

	fire.Store(true)
	_, err := sess.Collect(ctx, q())
	if !errors.Is(err, fdq.ErrPanicked) {
		t.Fatalf("want ErrPanicked, got %v", err)
	}
	var pe *fdq.PanicError
	if !errors.As(err, &pe) || pe.Reason == "" || pe.Stack == "" {
		t.Fatalf("panic error lost its payload: %+v", pe)
	}
	if st := sess.CacheStats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("cache after panic: %+v", st)
	}

	fire.Store(false)
	got, err := sess.Collect(ctx, q())
	if err != nil {
		t.Fatalf("clean re-run failed: %v", err)
	}
	if len(got) != 16 {
		t.Fatalf("clean re-run returned %d rows, want 16", len(got))
	}
	if st := sess.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache after clean re-run: %+v (panic poisoned the entry?)", st)
	}
}

// TestCacheEvictPanicRecovered: a panic raised during LRU eviction (forced
// via the fault injector) surfaces as ErrPanicked — never a process death —
// and the cache keeps working afterwards.
func TestCacheEvictPanicRecovered(t *testing.T) {
	defer faultinject.Reset()
	ctx := context.Background()
	cat := denseCatalog(t, 4)
	sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(1))

	if _, err := sess.Collect(ctx, scanQuery()); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.SiteCacheEvict, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	_, err := sess.Collect(ctx, pathQuery()) // inserting the 2nd shape evicts the 1st
	if !errors.Is(err, fdq.ErrPanicked) {
		t.Fatalf("want ErrPanicked from eviction, got %v", err)
	}
	faultinject.Reset()

	got, err := sess.Collect(ctx, pathQuery())
	if err != nil || len(got) != 64 {
		t.Fatalf("cache unusable after eviction panic: %d rows, err %v", len(got), err)
	}
	if st := sess.CacheStats(); st.Entries > 1 {
		t.Fatalf("cache over capacity after recovery: %+v", st)
	}
}

// TestConcurrentFailingQueriesCacheConsistent hammers one small-capacity
// session from many goroutines with a mix of always-panicking and clean
// shapes (run under -race in CI): every execution must see its own typed
// outcome, and the cache counters must stay arithmetically consistent.
func TestConcurrentFailingQueriesCacheConsistent(t *testing.T) {
	ctx := context.Background()
	cat := denseCatalog(t, 6)
	sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(4))

	const goroutines, iters = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				fail := i%2 == 0
				// The UDF name keys the cached shape, so it must encode the
				// behaviour: shapes named *-boom always panic.
				name := fmt.Sprintf("udf-%d-%t", (g+i)%6, fail)
				q := fdq.Query().Vars("x", "y", "w").Rel("E", "x", "y").
					UDF(name, "x,y", "w", func(args []fdq.Value) fdq.Value {
						if fail {
							panic("concurrent boom")
						}
						return args[0] + args[1]
					})
				_, err := sess.Collect(ctx, q)
				if fail && !errors.Is(err, fdq.ErrPanicked) {
					t.Errorf("goroutine %d iter %d: want ErrPanicked, got %v", g, i, err)
				}
				if !fail && err != nil {
					t.Errorf("goroutine %d iter %d: clean query failed: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()

	st := sess.CacheStats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("lookups %d+%d != %d executions", st.Hits, st.Misses, goroutines*iters)
	}
	if st.Entries > 4 {
		t.Fatalf("cache over capacity: %+v", st)
	}
	if st.Entries != st.Misses-st.Evictions {
		t.Fatalf("cache arithmetic broken: %+v (entries != misses - evictions)", st)
	}
}
