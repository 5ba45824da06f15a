package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
)

// TestCollectReservesTheLastAnswer: a Bound remembers the size of the last
// answer it delivered in full to a bare CountSink or CollectSink, and a bare
// empty collector reserves that many rows at its first write. A Bound's
// first Collect reserves nothing; after a Count, a Collect's storage is one
// allocation of exactly the answer's rows, while a buffering machine's whole
// answer is still adopted without a copy. Runs whose sink is wrapped — a
// limit, a block hand-off, a memory gauge — neither reserve nor record, and
// a memory trip is the same with a record as without.
func TestCollectReservesTheLastAnswer(t *testing.T) {
	ctx := context.Background()
	zipf := family(t, "skew/zipf-hot", 2048, 1)
	fig1 := paper.Fig1Skew(512)
	for _, tc := range []struct {
		name  string
		q     *query.Q
		opts  Options
		ran   Algorithm
		adopt bool // the machine buffers its whole answer and streams it in one piece
	}{
		{"skew/zipf-hot@2048", zipf, Options{Workers: 1}, AlgGenericJoin, false},
		{"skew/zipf-hot@2048", zipf, Options{Workers: 2}, AlgGenericJoin, false},
		{"Fig1Skew(512)", fig1, Options{Algorithm: AlgChain, Workers: 1}, AlgChain, true},
		{"Fig1Skew(512)", fig1, Options{Algorithm: AlgChain, Workers: 2, MinParallelRows: 1}, AlgChain, false},
	} {
		name := fmt.Sprintf("%s/%s/w=%d", tc.name, tc.ran, tc.opts.Workers)
		vars := tc.q.AllVars().Members()
		collect := func(b *Bound, opts Options) (*rel.CollectSink, *Stats) {
			t.Helper()
			c := rel.NewCollect("Q", vars...)
			st, err := b.RunInto(ctx, &opts, c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return c, st
		}
		b := mustBind(t, tc.q)
		first, st := collect(b, tc.opts)
		want, rows := first.R, first.R.Len()
		if st.Ran != tc.ran || st.Workers != tc.opts.Workers || rows == 0 {
			t.Fatalf("%s: precondition: ran %s on %d workers, %d rows", name, st.Ran, st.Workers, rows)
		}
		// Storage grown by appends is rounded to the allocator's size
		// classes, so it never holds exactly the answer as a reservation does.
		if !tc.adopt && first.R.Cap() == rows {
			t.Errorf("%s: the first Collect holds its %d rows in storage for exactly that many: it reserved", name, rows)
		}
		if got := b.answer.Load(); got != int64(rows) {
			t.Fatalf("%s: the first Collect recorded %d rows, delivered %d", name, got, rows)
		}

		// The record a Count leaves is what the next Collect reserves.
		b = mustBind(t, tc.q)
		var n rel.CountSink
		if _, err := b.RunInto(ctx, &tc.opts, &n); err != nil || n.N != rows {
			t.Fatalf("%s: Count %d, %v; want %d", name, n.N, err, rows)
		}
		c, _ := collect(b, tc.opts)
		if !rel.Identical(c.R, want) {
			t.Fatalf("%s: the reserved Collect's %d rows differ from the first's %d", name, c.R.Len(), rows)
		}
		if !tc.adopt && c.R.Cap() != rows {
			t.Errorf("%s: after a Count the collector holds %d rows in storage for %d: not reserved once", name, rows, c.R.Cap())
		}

		// Bound.Run of a buffering machine adopts its answer with a record as
		// without one: no second copy of the rows. Each side's bytes are the
		// least of eight runs, since a race-enabled sync.Pool drops a quarter
		// of what it is given and a run that misses it allocates more.
		if tc.adopt {
			run := func(b func() *Bound) (out *rel.Relation, least uint64) {
				least = math.MaxUint64
				for range 8 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					r, _, err := b().Run(ctx, &tc.opts)
					runtime.ReadMemStats(&after)
					if err != nil {
						t.Fatal(err)
					}
					out, least = r, min(least, after.TotalAlloc-before.TotalAlloc)
				}
				return out, least
			}
			plain, unrecorded := run(func() *Bound { return mustBind(t, tc.q) })
			out, recorded := run(func() *Bound { return b })
			rowBytes := uint64(rows * len(vars) * 8)
			if !rel.Identical(out, want) || out.Cap() != plain.Cap() || recorded > unrecorded+rowBytes/2 {
				t.Errorf("%s: Run with a record allocated %d B (storage for %d rows), without %d B (%d rows): the answer was copied, not adopted",
					name, recorded, out.Cap(), unrecorded, plain.Cap())
			}
		}

		// Wrapped sinks: no reservation, no record.
		lim := rel.NewCollect("Q", vars...)
		if _, err := b.RunInto(ctx, &tc.opts, rel.Limit(lim, 1)); err != nil || lim.R.Len() != 1 || lim.R.Cap() >= rows {
			t.Errorf("%s: Limit(1) collected %d rows in storage for %d, %v", name, lim.R.Len(), lim.R.Cap(), err)
		}
		unchanged := func(run string) {
			t.Helper()
			if got := b.answer.Load(); got != int64(rows) {
				t.Errorf("%s: a %s run changed the record to %d, the answer has %d rows", name, run, got, rows)
			}
		}
		unchanged("Limit(1)")
		got := rel.New("Q", vars...)
		bs := rel.NewBlockSink(nil)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for blk := range bs.C {
				for i, w := 0, len(vars); i < blk.N; i++ {
					got.AddTuple(blk.Vals[i*w : (i+1)*w])
				}
			}
		}()
		_, err := b.RunInto(ctx, &tc.opts, bs)
		bs.Flush()
		close(bs.C)
		<-done
		if err != nil || !rel.Identical(got, want) {
			t.Errorf("%s: the BlockSink run delivered %d of %d rows, %v", name, got.Len(), rows, err)
		}
		unchanged("BlockSink")
		ample := tc.opts
		ample.MemLimitBytes = 1 << 40
		gauged, _ := collect(b, ample)
		plain, _ := collect(mustBind(t, tc.q), ample)
		if !rel.Identical(gauged.R, want) || gauged.R.Cap() != plain.R.Cap() {
			t.Errorf("%s: under an ample MemLimitBytes the collector grew to %d rows, on a Bound without a record to %d", name, gauged.R.Cap(), plain.R.Cap())
		}
		unchanged("MemLimitBytes")

		// A memory trip: the same error at the same row, record or not.
		if tc.opts.Workers == 1 {
			trip := tc.opts
			trip.MemLimitBytes = int64(rows*len(vars)*8) / 2
			tripped := func(b *Bound) (*MemLimitError, *rel.Relation) {
				c := rel.NewCollect("Q", vars...)
				_, err := b.RunInto(ctx, &trip, c)
				var me *MemLimitError
				if !errors.As(err, &me) {
					t.Fatalf("%s: want *MemLimitError, got %v", name, err)
				}
				return me, c.R
			}
			me0, r0 := tripped(mustBind(t, tc.q))
			me1, r1 := tripped(b)
			if *me0 != *me1 || !rel.Identical(r0, r1) || r0.Cap() != r1.Cap() || r1.Cap() >= rows {
				t.Errorf("%s: trip without a record %+v after %d rows (storage %d), with one %+v after %d rows (storage %d)",
					name, *me0, r0.Len(), r0.Cap(), *me1, r1.Len(), r1.Cap())
			}
		}

		// Concurrent Collects of one Bound, each reserving from the record.
		var wg sync.WaitGroup
		outs := make([]*rel.CollectSink, 4)
		for i := range outs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := rel.NewCollect("Q", vars...)
				if _, err := b.RunInto(ctx, &tc.opts, c); err != nil {
					t.Error(err)
				}
				outs[i] = c
			}()
		}
		wg.Wait()
		for i, c := range outs {
			if !rel.Identical(c.R, want) {
				t.Errorf("%s: concurrent Collect %d returned %d rows that differ from the reference's %d", name, i, c.R.Len(), rows)
			}
		}
	}
}
