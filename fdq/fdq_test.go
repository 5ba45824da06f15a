package fdq_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// triangleCatalog returns a catalog holding the quickstart triangle data.
func triangleCatalog(t *testing.T) *fdq.Catalog {
	t.Helper()
	cat := fdq.NewCatalog()
	var r, s, tt [][]fdq.Value
	for i := int64(0); i < 30; i++ {
		r = append(r, []fdq.Value{i % 6, (i * 7) % 6})
		s = append(s, []fdq.Value{(i * 7) % 6, (i * 11) % 6})
		tt = append(tt, []fdq.Value{(i * 11) % 6, i % 6})
	}
	for name, rows := range map[string][][]fdq.Value{"R": r, "S": s, "T": tt} {
		if err := cat.Define(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func triangleQuery() *fdq.Q {
	return fdq.Query().Vars("x", "y", "z").
		Rel("R", "x", "y").Rel("S", "y", "z").Rel("T", "z", "x")
}

func TestTriangleCollectRowsCount(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	ctx := context.Background()

	got, err := sess.Collect(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("triangle query returned no rows")
	}
	if !slices.IsSortedFunc(got, func(a, b []fdq.Value) int { return slices.Compare(a, b) }) {
		t.Fatal("Collect rows are not sorted")
	}

	// Rows must deliver exactly the Collect answer, in order.
	rows, err := sess.Query(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); !slices.Equal(cols, []string{"x", "y", "z"}) {
		t.Fatalf("columns = %v", cols)
	}
	var streamed [][]fdq.Value
	for rows.Next() {
		var x, y, z fdq.Value
		if err := rows.Scan(&x, &y, &z); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, []fdq.Value{x, y, z})
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, streamed, slices.Equal) {
		t.Fatalf("streamed %d rows differ from Collect's %d", len(streamed), len(got))
	}
	if st := rows.Stats(); st == nil || st.Rows != len(got) {
		t.Fatalf("stats = %+v, want %d rows", st, len(got))
	}

	n, err := sess.Count(ctx, triangleQuery())
	if err != nil || n != len(got) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(got))
	}
}

// TestCollectRowsAreIndependent: Collect hands out views of one backing
// array, so each view's capacity must end at its own row — writing to or
// appending to one returned row may not show up in any other.
func TestCollectRowsAreIndependent(t *testing.T) {
	sess := triangleCatalog(t).Session()
	ctx := context.Background()
	want, err := sess.Collect(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	got, err := sess.Collect(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 3 {
		t.Fatalf("need at least 3 rows, got %d", len(got))
	}
	mid := len(got) / 2
	got[mid][0] = -7
	_ = append(got[mid], -1, -2, -3)
	_ = append(got[mid-1], -9)
	for i := range got {
		if i != mid && !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %v after mutating row %d, want %v", i, got[i], mid, want[i])
		}
	}
	if !slices.Equal(got[mid][1:], want[mid][1:]) {
		t.Fatalf("row %d = %v: an append to its neighbour overwrote it", mid, got[mid])
	}
}

func TestLimitIsPrefixAndStopsEarly(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	ctx := context.Background()
	full, err := sess.Collect(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, len(full), len(full) + 10} {
		got, err := sess.Collect(ctx, triangleQuery().Limit(k))
		if err != nil {
			t.Fatal(err)
		}
		want := min(k, len(full))
		if len(got) != want || !slices.EqualFunc(got, full[:want], slices.Equal) {
			t.Fatalf("Limit(%d) = %v, want prefix of %v", k, got, full[:want])
		}
		n, err := sess.Count(ctx, triangleQuery().Limit(k))
		if err != nil || n != want {
			t.Fatalf("Count with Limit(%d) = %d, %v", k, n, err)
		}
	}
}

func TestRowsCloseStopsExecutor(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	rows, err := sess.Query(context.Background(), triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after one row: %v", err)
	}
	if rows.Next() {
		t.Fatal("Next after Close")
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("consumer-initiated stop must not be an error, got %v", err)
	}
}

func TestQueryCancelSurfacesError(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := sess.Query(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err) // resolution doesn't touch ctx; execution reports it
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rows.Close()
}

// bigTriangleCatalog: complete digraph on 20 nodes (with loops), so the
// triangle query yields 8000 rows — far beyond the Rows channel buffer.
func bigTriangleCatalog(t *testing.T) *fdq.Catalog {
	t.Helper()
	cat := fdq.NewCatalog()
	var edges [][]fdq.Value
	for i := int64(0); i < 20; i++ {
		for j := int64(0); j < 20; j++ {
			edges = append(edges, []fdq.Value{i, j})
		}
	}
	for _, name := range []string{"R", "S", "T"} {
		if err := cat.Define(name, []string{"a", "b"}, edges); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func TestExternalCancelUnblocksParkedProducer(t *testing.T) {
	// The producer outruns the consumer and parks on the full channel;
	// cancelling the caller's context must unblock it (the iterator's
	// derived context doubles as the sink's stop signal) and surface
	// context.Canceled from Err.
	sess := bigTriangleCatalog(t).Session()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := sess.Query(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if !rows.Next() {
			t.Fatal("no rows before cancel")
		}
	}
	cancel()
	n := 0
	for rows.Next() {
		n++
	}
	if n > 8000-2 {
		t.Fatalf("cancel did not stop the producer: drained %d more rows", n)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after external cancel = %v, want context.Canceled", err)
	}
}

func TestImmediateCloseAbortsBufferingExecutor(t *testing.T) {
	// A buffering algorithm (explicit binary plan) pushes nothing until its
	// final flush; Close must not wait for the flush — it cancels the
	// derived context, which the executor's own checks observe — and the
	// self-inflicted cancellation is not an error.
	sess := bigTriangleCatalog(t).Session()
	rows, err := sess.Query(context.Background(), triangleQuery().Alg("binary").Workers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("immediate Close: %v", err)
	}
	if rows.Err() != nil {
		t.Fatalf("Err after own Close = %v, want nil", rows.Err())
	}
}

func TestGuardedFDAndDegreeBuilder(t *testing.T) {
	cat := fdq.NewCatalog()
	// G guards y -> z (each y has exactly one z) and a degree bound.
	var g, r [][]fdq.Value
	for y := int64(0); y < 8; y++ {
		g = append(g, []fdq.Value{y, y * y % 5})
		for x := int64(0); x < 4; x++ {
			r = append(r, []fdq.Value{x, y})
		}
	}
	if err := cat.Define("G", []string{"y", "z"}, g); err != nil {
		t.Fatal(err)
	}
	if err := cat.Define("R", []string{"x", "y"}, r); err != nil {
		t.Fatal(err)
	}
	q := fdq.Query().Vars("x", "y", "z").
		Rel("R", "x", "y").Rel("G", "y", "z").
		FD("G", "y", "z").
		Degree("G", "y", "y z", 1)
	sess := cat.Session()
	got, err := sess.Collect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("got %d rows, want %d (every (x,y) extends to exactly one z)", len(got), len(r))
	}
	ex, err := sess.Explain(q)
	if err != nil || ex.Algorithm == "" || ex.Reason == "" {
		t.Fatalf("Explain = %+v, %v", ex, err)
	}
}

func TestUDFBuilder(t *testing.T) {
	cat := fdq.NewCatalog()
	var r [][]fdq.Value
	for i := int64(0); i < 10; i++ {
		r = append(r, []fdq.Value{i, (i * 3) % 7})
	}
	if err := cat.Define("R", []string{"x", "y"}, r); err != nil {
		t.Fatal(err)
	}
	q := fdq.Query().Vars("x", "y", "s").
		Rel("R", "x", "y").
		UDF("sum", "x y", "s", func(args []fdq.Value) fdq.Value { return args[0] + args[1] })
	got, err := cat.Session().Collect(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("got %d rows, want %d", len(got), len(r))
	}
	for _, row := range got {
		if row[2] != row[0]+row[1] {
			t.Fatalf("UDF not applied: %v", row)
		}
	}
}

func TestBuilderErrorsSurface(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	ctx := context.Background()
	bad := []*fdq.Q{
		fdq.Query().Rel("R", "x", "y"),                                  // no Vars
		fdq.Query().Vars(),                                              // empty Vars
		fdq.Query().Vars(""),                                            // empty name
		fdq.Query().Vars("x", "x").Rel("R", "x", "x"),                   // dup var
		fdq.Query().Vars("x", "y").Vars("z"),                            // Vars twice
		fdq.Query().Vars("x", "y"),                                      // no relations
		fdq.Query().Vars("x", "y").Rel("R", "x", "w"),                   // unknown var
		fdq.Query().Vars("x", "y").Rel("R", "x", "x"),                   // var bound twice
		fdq.Query().Vars("x", "y").Rel(""),                              // empty rel name
		fdq.Query().Vars("x", "y").Rel("Nope", "x", "y"),                // unknown relation
		fdq.Query().Vars("x", "y").Rel("R", "x"),                        // arity mismatch
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").Alg("quantum"),    // unknown algorithm
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").FD("S", "x", "y"), // guard not an atom
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").FD("R", "", "y"),  // empty FD side
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").FD("R", "x", "w"), // FD unknown var
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").
			UDF("", "x", "y", nil), // UDF without name/fn
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").
			UDF("u", "x", "w", func([]fdq.Value) fdq.Value { return 0 }), // UDF unknown var
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").Degree("", "x", "x y", 2),     // no guard
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").Degree("R", "x", "w", 2),      // unknown var
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").Degree("Nope", "x", "x y", 2), // guard not atom
		fdq.Query().Vars("x", "y").Rel("R", "x", "y").Degree("R", "x y", "x", 2),    // x ⊄ y
	}
	for i, q := range bad {
		if _, err := sess.Collect(ctx, q); err == nil {
			t.Fatalf("bad query %d did not error", i)
		}
		if _, err := sess.Count(ctx, q); err == nil {
			t.Fatalf("bad query %d did not error from Count", i)
		}
		if _, err := sess.Explain(q); err == nil {
			t.Fatalf("bad query %d did not error from Explain", i)
		}
		if _, err := sess.Query(ctx, q); err == nil {
			t.Fatalf("bad query %d did not error from Query", i)
		}
	}
}

// An FD that no relation guards and no function computes is refused at
// resolve, whichever front-end declares it, with an error naming it — even
// where its bound would be admitted: R(x) = {1} with S(x,y) holding three
// y-values for x = 1 certifies 2^0 under x -> y, and has three answers.
func TestFDWithoutGuardOrFunctionIsRefused(t *testing.T) {
	cat := fdq.NewCatalog()
	if err := cat.Define("R", []string{"x"}, [][]fdq.Value{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.Define("S", []string{"x", "y"}, [][]fdq.Value{{1, 2}, {1, 5}, {1, 7}}); err != nil {
		t.Fatal(err)
	}
	events := 0
	sess := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxLogBound(0.5),
		fdq.WithAdmissionObserver(func(fdq.AdmissionEvent) { events++ }))))
	ctx := context.Background()
	spec := &fdqc.QuerySpec{
		Vars: []string{"x", "y"},
		Rels: []fdqc.RelSpec{{Name: "R", Vars: []string{"x"}}, {Name: "S", Vars: []string{"x", "y"}}},
		FDs:  []fdqc.FDSpec{{From: []string{"x"}, To: []string{"y"}}},
	}
	fromSpec, err := spec.Query()
	if err == nil || !strings.Contains(err.Error(), "x -> y") {
		t.Fatalf("spec.Query: %v", err)
	}
	if _, _, err := fdq.ParseScript("vars x y\nrel R(x)\nrel S(x, y)\nfd x -> y\nrow R 1\n"); err == nil ||
		!strings.Contains(err.Error(), "x -> y") {
		t.Fatalf("ParseScript: %v", err)
	}
	for name, q := range map[string]*fdq.Q{
		"builder": fdq.Query().Vars("x", "y").Rel("R", "x").Rel("S", "x", "y").FD("", "x", "y"),
		"spec":    fromSpec,
	} {
		errs := map[string]error{}
		_, errs["Explain"] = sess.Explain(q)
		_, errs["Collect"] = sess.Collect(ctx, q)
		_, errs["Count"] = sess.Count(ctx, q)
		_, errs["Query"] = sess.Query(ctx, q)
		for call, err := range errs {
			if err == nil || !strings.Contains(err.Error(), "x -> y") {
				t.Errorf("%s: %s = %v, want an error naming x -> y", name, call, err)
			}
		}
	}
	if events != 0 {
		t.Fatalf("%d admission events for queries refused at resolve", events)
	}
}

func TestAllAlgorithmsThroughBuilder(t *testing.T) {
	cat := triangleCatalog(t)
	sess := cat.Session()
	ctx := context.Background()
	want, err := sess.Count(ctx, triangleQuery())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"auto", "chain", "sm", "csma", "generic", "binary"} {
		n, err := sess.Count(ctx, triangleQuery().Alg(alg).Workers(1))
		if err != nil {
			// chain/sm are legitimately inapplicable to the FD-free triangle.
			if alg == "chain" || alg == "sm" {
				continue
			}
			t.Fatalf("alg %s: %v", alg, err)
		}
		if n != want {
			t.Fatalf("alg %s counted %d, want %d", alg, n, want)
		}
		ex, err := sess.Explain(triangleQuery().Alg(alg))
		if err != nil {
			t.Fatalf("explain %s: %v", alg, err)
		}
		if alg != "auto" && ex.Algorithm != alg {
			t.Fatalf("explain %s reported %q", alg, ex.Algorithm)
		}
	}
	// Limit(-1) clears the cap; Row() exposes the current row.
	rows, err := sess.Query(ctx, triangleQuery().Limit(3).Limit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if rows.Stats() != nil || rows.Err() != nil {
		t.Fatal("stats/err must be nil before exhaustion")
	}
	total := 0
	for rows.Next() {
		if len(rows.Row()) != 3 {
			t.Fatalf("Row() = %v", rows.Row())
		}
		var x fdq.Value
		if err := rows.Scan(&x); err == nil {
			t.Fatal("Scan with wrong arity must error")
		}
		total++
	}
	if err := rows.Close(); err != nil || total != want {
		t.Fatalf("uncapped stream: %d rows, err %v", total, err)
	}
	var x fdq.Value
	if err := rows.Scan(&x); err == nil {
		t.Fatal("Scan without a current row must error")
	}
}

func TestPreparedCacheHitsAndEviction(t *testing.T) {
	cat := triangleCatalog(t)
	sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(2))
	ctx := context.Background()

	// Re-running an identical shape is a cache hit, whatever the options.
	if _, err := sess.Collect(ctx, triangleQuery()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(ctx, triangleQuery().Limit(2).Workers(1)); err != nil {
		t.Fatal(err)
	}
	st := sess.CacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("after identical re-run: %+v", st)
	}

	// Two more distinct shapes overflow capacity 2 and evict the LRU one.
	q2 := fdq.Query().Vars("x", "y").Rel("R", "x", "y")
	q3 := fdq.Query().Vars("y", "z").Rel("S", "y", "z")
	if _, err := sess.Collect(ctx, q2); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(ctx, q3); err != nil {
		t.Fatal(err)
	}
	st = sess.CacheStats()
	if st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after overflow: %+v", st)
	}

	// The evicted shape (the triangle, least recently used) re-prepares.
	if _, err := sess.Collect(ctx, triangleQuery()); err != nil {
		t.Fatal(err)
	}
	st = sess.CacheStats()
	if st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("after evicted re-run: %+v", st)
	}
}

func TestFailingShapesAreNotCached(t *testing.T) {
	cat := triangleCatalog(t)
	sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(2))
	ctx := context.Background()

	// A shape that fails to resolve must not occupy an LRU slot (it would
	// evict warm prepared shapes) nor read as a cache hit on retry.
	missing := func() *fdq.Q { return fdq.Query().Vars("x", "y").Rel("Nope", "x", "y") }
	if _, err := sess.Collect(ctx, missing()); err == nil {
		t.Fatal("missing relation did not error")
	}
	if st := sess.CacheStats(); st.Entries != 0 {
		t.Fatalf("failing shape was cached: %+v", st)
	}
	if _, err := sess.Collect(ctx, missing()); err == nil {
		t.Fatal("retry did not error")
	}
	if st := sess.CacheStats(); st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("failing retry counted as hit or got cached: %+v", st)
	}

	// A good shape prepared before the failures stays cached.
	if _, err := sess.Collect(ctx, triangleQuery()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(ctx, missing()); err == nil {
		t.Fatal("missing relation did not error")
	}
	if _, err := sess.Collect(ctx, triangleQuery()); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("good shape lost to failing ones: %+v", st)
	}
}

func TestCatalogRedefineIsPickedUpWithoutRePrepare(t *testing.T) {
	cat := fdq.NewCatalog()
	if err := cat.Define("R", []string{"a", "b"}, [][]fdq.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	sess := cat.Session()
	ctx := context.Background()
	q := fdq.Query().Vars("x", "y").Rel("R", "x", "y")

	got, err := sess.Collect(ctx, q)
	if err != nil || len(got) != 1 {
		t.Fatalf("initial: %v, %v", got, err)
	}
	if err := cat.Define("R", []string{"a", "b"}, [][]fdq.Value{{1, 2}, {3, 4}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	got, err = sess.Collect(ctx, q)
	if err != nil || len(got) != 2 {
		t.Fatalf("after redefine: %v, %v (want 2 deduplicated rows)", got, err)
	}
	st := sess.CacheStats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("redefine must re-bind, not re-prepare: %+v", st)
	}

	// Schema change (arity) forces a clean error.
	if err := cat.Define("R", []string{"a", "b", "c"}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(ctx, q); err == nil {
		t.Fatal("arity change must surface an error")
	}
}

// TestRedefinedGuardRowIsNotServedFromTheOldBinding: the FD executors keep
// what they derive from an instance (R_j⁺, its projections) with the cached
// binding, so a Define must reach them: after one row of the guard of yz→u
// changes, every algorithm answers from the new version, on the warm shape.
func TestRedefinedGuardRowIsNotServedFromTheOldBinding(t *testing.T) {
	rowsOf := func(r *rel.Relation) [][]fdq.Value {
		out := make([][]fdq.Value, r.Len())
		for i := range out {
			out[i] = slices.Clone(r.Row(i))
		}
		return out
	}
	for _, alg := range []string{"auto", "chain", "csma", "generic"} {
		qq := scenario.FDDag(256, 1)
		cat := fdq.NewCatalog()
		cols := [][]string{{"x", "y"}, {"x", "z"}, {"y", "z", "u"}}
		for j, r := range qq.Rels {
			if err := cat.Define(r.Name, cols[j], rowsOf(r)); err != nil {
				t.Fatal(err)
			}
		}
		q := fdq.Query().Vars("x", "y", "z", "u").
			Rel("R", "x", "y").Rel("S", "x", "z").Rel("T", "y", "z", "u").
			FD("R", "x", "y").FD("S", "x", "z").FD("T", "y z", "u").
			Alg(alg).Workers(1)
		sess := cat.Session()
		check := func(when string) [][]fdq.Value {
			got, err := sess.Collect(context.Background(), q)
			if err != nil {
				t.Fatalf("%s %s: %v", alg, when, err)
			}
			want := naive.Evaluate(qq)
			if len(got) != want.Len() {
				t.Fatalf("%s %s: %d rows, reference %d", alg, when, len(got), want.Len())
			}
			for i, row := range got {
				if !slices.Equal(row, want.Row(i)) {
					t.Fatalf("%s %s: row %d is %v, reference %v", alg, when, i, row, want.Row(i))
				}
			}
			return got
		}
		before := check("before the Define")
		check("warm") // the binding's derived state is now in use

		// Change u in the guard row that produced one output row.
		hit := before[len(before)/2]
		tRows := rowsOf(qq.Rels[2])
		for _, row := range tRows {
			if row[0] == hit[1] && row[1] == hit[2] {
				row[2] += 1000003
				break
			}
		}
		if err := cat.Define("T", cols[2], tRows); err != nil {
			t.Fatal(err)
		}
		t2 := rel.New("T", qq.Rels[2].Attrs...)
		for _, row := range tRows {
			t2.AddTuple(row)
		}
		t2.SortDedup()
		qq = qq.WithFreshRels([]*rel.Relation{qq.Rels[0], qq.Rels[1], t2})
		after := check("after the Define")
		if slices.EqualFunc(before, after, func(a, b []fdq.Value) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: the changed guard row did not change the answer: the test proves nothing", alg)
		}
	}
}

func TestConcurrentSessionsSharedCatalogRace(t *testing.T) {
	cat := triangleCatalog(t)
	sessions := []*fdq.Session{cat.Session(), cat.Session()}
	ctx := context.Background()
	stop := make(chan struct{})
	writerDone := make(chan struct{})

	// Writer: keeps replacing T with slightly different data, exercising
	// the copy-on-write snapshot path under the readers' feet.
	go func() {
		defer close(writerDone)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rows := [][]fdq.Value{{i % 6, (i + 1) % 6}, {0, 0}, {1, 1}}
			if err := cat.Define("T", []string{"a", "b"}, rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Readers: stream and collect through both sessions concurrently.
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			sess := sessions[w%len(sessions)]
			for i := 0; i < 30; i++ {
				if _, err := sess.Collect(ctx, triangleQuery()); err != nil {
					t.Errorf("collect: %v", err)
					return
				}
				rows, err := sess.Query(ctx, triangleQuery().Limit(3))
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				for rows.Next() {
				}
				if err := rows.Close(); err != nil {
					t.Errorf("close: %v", err)
					return
				}
			}
		}(w)
	}
	readers.Wait()
	close(stop)
	<-writerDone
}

func TestParseScriptMatchesInternalEvaluation(t *testing.T) {
	src := `
# triangle with a UDF-derived sum
vars x y z s
rel R(x, y)
rel S(y, z)
rel T(z, x)
fd x y -> s via sum
row R 1 2
row R 2 3
row R 3 1
row S 2 3
row S 3 1
row S 1 2
row T 3 1
row T 1 2
row T 2 3
`
	cat, qb, err := fdq.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cat.Session().Collect(context.Background(), qb)
	if err != nil {
		t.Fatal(err)
	}

	qq, err := query.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Evaluate(qq)
	if len(got) != want.Len() {
		t.Fatalf("script eval: %d rows vs naive %d", len(got), want.Len())
	}
	for i, row := range got {
		if !slices.Equal(row, want.Row(i)) {
			t.Fatalf("row %d: %v vs %v", i, row, want.Row(i))
		}
	}
}

func TestCatalogIntrospection(t *testing.T) {
	cat := triangleCatalog(t)
	if rels := cat.Relations(); !slices.Equal(rels, []string{"R", "S", "T"}) {
		t.Fatalf("Relations = %v", rels)
	}
	cols, n, ok := cat.Schema("R")
	if !ok || !slices.Equal(cols, []string{"a", "b"}) || n == 0 {
		t.Fatalf("Schema(R) = %v, %d, %v", cols, n, ok)
	}
	v := cat.Version()
	if !cat.Drop("T") {
		t.Fatal("Drop(T) = false")
	}
	if cat.Drop("T") {
		t.Fatal("double Drop(T) = true")
	}
	if cat.Version() != v+1 {
		t.Fatalf("version did not advance: %d vs %d", cat.Version(), v)
	}
	if _, _, ok := cat.Schema("T"); ok {
		t.Fatal("dropped relation still visible")
	}
}

func ExampleQuery() {
	fmt.Println(fdq.Query().Vars("x", "y").Rel("R", "x", "y").Err())
	// Output: <nil>
}
