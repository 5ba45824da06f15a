package engine

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/rel"
)

// TestBudgetsTripAtTheSameRow: generic join hands a bare collector or counter
// its last level in runs, and a sink that meters rows must not notice. On
// paper/triangle-product@32 (32³ rows of 24 bytes) a memory limit and a LIMIT
// stop at the row, with the accounting and the typed error, they stopped at
// when every row was pushed on its own.
func TestBudgetsTripAtTheSameRow(t *testing.T) {
	ctx := context.Background()
	b := bind(t, family(t, "paper/triangle-product", 32, 1))
	if alg := b.Plan().Algorithm; alg != AlgGenericJoin {
		t.Fatalf("planned to %s, want generic join", alg)
	}
	full, _, err := b.Run(ctx, &Options{Workers: 1})
	if err != nil || full.Len() != 32*32*32 {
		t.Fatalf("full run: %d rows, %v", full.Len(), err)
	}
	// 1000 bytes hold 41 rows; the 42nd trips the gauge and is not delivered.
	for _, sink := range []rel.Sink{rel.NewCollect("Q", 0, 1, 2), &rel.CountSink{}} {
		st, err := b.RunInto(ctx, &Options{Workers: 1, MemLimitBytes: 1000}, sink)
		var me *MemLimitError
		if !errors.As(err, &me) || me.Limit != 1000 || me.Used != 1008 || st.OutSize != 42 {
			t.Fatalf("%T under a 1000-byte limit: %v, stats %+v", sink, err, st)
		}
		switch s := sink.(type) {
		case *rel.CollectSink:
			if s.R.Len() != 41 || !slices.Equal(s.R.Row(40), full.Row(40)) {
				t.Fatalf("collector holds %d rows at the trip, want the first 41", s.R.Len())
			}
		case *rel.CountSink:
			if s.N != 41 {
				t.Fatalf("counter saw %d rows at the trip, want 41", s.N)
			}
		}
	}
	for _, k := range []int{1, 33, 1025} {
		col := rel.NewCollect("Q", 0, 1, 2)
		st, err := b.RunInto(ctx, &Options{Workers: 1}, rel.Limit(col, k))
		if err != nil || st.OutSize != k || col.R.Len() != k {
			t.Fatalf("limit %d: %d rows, stats %+v, %v", k, col.R.Len(), st, err)
		}
		for i := 0; i < k; i++ {
			if !slices.Equal(col.R.Row(i), full.Row(i)) {
				t.Fatalf("limit %d: row %d is %v, want %v", k, i, col.R.Row(i), full.Row(i))
			}
		}
	}
}
