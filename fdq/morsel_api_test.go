package fdq_test

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"testing"

	"repro/fdq"
)

// skewCatalog builds a triangle catalog whose output mass concentrates on
// nhubs hot x-values (each contributing fan² rows through a dense y/z
// block) over bg background triangles — the adversarial shape for a
// scheduler without stealing.
func skewCatalog(t *testing.T, nhubs, fan, bg int, seed uint64) *fdq.Catalog {
	t.Helper()
	var r, s, tt [][]fdq.Value
	for h := 0; h < nhubs; h++ {
		hub := int64(h * 97)
		yb, zb := int64(10000+h*2*fan), int64(10000+(h*2+1)*fan)
		for i := 0; i < fan; i++ {
			r = append(r, []fdq.Value{hub, yb + int64(i)})
			tt = append(tt, []fdq.Value{zb + int64(i), hub})
			for j := 0; j < fan; j++ {
				s = append(s, []fdq.Value{yb + int64(i), zb + int64(j)})
			}
		}
	}
	next := func(m int64) int64 {
		seed = seed*2862933555777941757 + 3037000493
		return int64(seed>>33) % m
	}
	for i := 0; i < bg; i++ {
		x, y, z := next(500), 20000+next(200), 30000+next(200)
		r = append(r, []fdq.Value{x, y})
		s = append(s, []fdq.Value{y, z})
		tt = append(tt, []fdq.Value{z, x})
	}
	cat := fdq.NewCatalog()
	for name, rows := range map[string][][]fdq.Value{"R": r, "S": s, "T": tt} {
		if err := cat.Define(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// collectWithStats drains a Query iterator and returns its rows and stats.
func collectWithStats(t *testing.T, sess *fdq.Session, q *fdq.Q) ([][]fdq.Value, *fdq.RunStats) {
	t.Helper()
	rows, err := sess.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var out [][]fdq.Value
	for rows.Next() {
		out = append(out, append([]fdq.Value(nil), rows.Row()...))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	st := rows.Stats()
	if st == nil {
		t.Fatal("no stats after exhaustion")
	}
	return out, st
}

// TestMorselStatsAndSessionOptions: the default session runs parallel
// queries through the morsel scheduler and reports its work in RunStats
// (a sequential run of the same query is byte-identical and reports no
// morsel stats).
func TestMorselStatsAndSessionOptions(t *testing.T) {
	cat := skewCatalog(t, 4, 10, 600, 1)
	q := func() *fdq.Q { return triangleQuery().Workers(4) }

	morselRows, stM := collectWithStats(t, cat.Session(), q())
	if stM.Workers != 4 || stM.Morsels <= stM.Workers {
		t.Fatalf("morsel scheduler not exercised: %+v", stM)
	}

	seqRows, stS := collectWithStats(t, cat.Session(), triangleQuery().Workers(1))
	if stS.Morsels != 0 || stS.Steals != 0 {
		t.Fatalf("sequential run reported morsel stats: %+v", stS)
	}
	if !slices.EqualFunc(morselRows, seqRows, slices.Equal) {
		t.Fatalf("sequential and morsel runs disagree: %d vs %d rows", len(seqRows), len(morselRows))
	}
}

// TestRowsCloseMidMorselRun closes a morsel-path iterator after one row on
// hot-key data — morsels still queued, steals possibly in flight — and
// requires a clean stop with no leaked goroutines, then a full re-run on
// the same session.
func TestRowsCloseMidMorselRun(t *testing.T) {
	cat := skewCatalog(t, 4, 14, 700, 2)
	sess := cat.Session()
	q := func() *fdq.Q { return triangleQuery().Workers(4) }

	full, err := sess.Collect(context.Background(), q())
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	for iter := 0; iter < 3; iter++ {
		rows, err := sess.Query(context.Background(), q())
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() {
			t.Fatal("no first row")
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("iteration %d: Close mid-run: %v", iter, err)
		}
		settleGoroutines(t, base)
	}

	got, st := collectWithStats(t, sess, q())
	if !slices.EqualFunc(full, got, slices.Equal) {
		t.Fatal("post-close run differs from the pristine answer")
	}
	if st.Morsels <= st.Workers {
		t.Fatalf("post-close run did not use the morsel scheduler: %+v", st)
	}
}

// TestGovernorTripsOnMorselPath: the governor's budgets trip with the same
// typed errors whichever goroutine happens to hold the sink when they do —
// the row budget after exactly its rows, Count exempt from it, the memory
// budget with its accounting — and no worker outlives the refusal.
func TestGovernorTripsOnMorselPath(t *testing.T) {
	ctx := context.Background()
	cat := skewCatalog(t, 4, 10, 600, 3)
	want, err := cat.Session().Count(ctx, triangleQuery().Workers(1))
	if err != nil || want < 100 {
		t.Fatalf("sequential Count = %d, %v", want, err)
	}
	rowGov := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxRows(10))))
	memGov := fdq.NewSession(cat, fdq.WithGovernor(fdq.NewGovernor(fdq.WithMaxMemory(256))))
	for _, workers := range []int{2, 3, 8} {
		base := runtime.NumGoroutine()
		q := func() *fdq.Q { return triangleQuery().Workers(workers) }
		if _, st := collectWithStats(t, cat.Session(), q()); st.Workers != workers || st.Morsels <= workers {
			t.Fatalf("w=%d: morsel scheduler not exercised: %+v", workers, st)
		}

		var re *fdq.RowsExceededError
		if _, err := rowGov.Collect(ctx, q()); !errors.As(err, &re) || re.Limit != 10 {
			t.Fatalf("w=%d: Collect over the row budget: %v", workers, err)
		}
		rows, err := rowGov.Query(ctx, q())
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); !errors.Is(err, fdq.ErrRowsExceeded) || n != 10 {
			t.Fatalf("w=%d: iterator delivered %d rows, err %v; want 10 and ErrRowsExceeded", workers, n, err)
		}
		if got, err := rowGov.Count(ctx, q()); err != nil || got != want {
			t.Fatalf("w=%d: Count under a row budget = %d, %v; want %d", workers, got, err, want)
		}

		var me *fdq.MemoryExceededError
		if _, err := memGov.Collect(ctx, q()); !errors.As(err, &me) || me.Limit != 256 || me.Used <= me.Limit {
			t.Fatalf("w=%d: Collect over the memory budget: %v (%+v)", workers, err, me)
		}
		settleGoroutines(t, base)
	}
}
