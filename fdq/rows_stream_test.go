package fdq_test

// What Session.Query's block hand-off promises: the first row at once, a
// per-block (not per-row) cost, and a bounded run-ahead.

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/fdq"
	"repro/internal/faultinject"
)

// TestQueryFirstRowDoesNotWaitForABlock: the producer stalls for a second
// on its second row; the first must already be in the consumer's hands.
func TestQueryFirstRowDoesNotWaitForABlock(t *testing.T) {
	sess := fdq.NewSession(denseCatalog(t, 10)) // 1 000 result rows
	const stall = time.Second
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.SiteSinkPush, faultinject.Fault{Kind: faultinject.KindDelay, After: 1, Times: 1, Delay: stall})

	start := time.Now()
	rows, err := sess.Query(context.Background(), pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if d := time.Since(start); d > stall/2 {
		t.Fatalf("first row took %v: it waited out the producer's %v stall on the second row", d, stall)
	}
}

// TestQueryStreamAllocatesPerBlock: streaming is charged per hand-off, not
// per row — at most one object per 64 rows, the whole query included.
func TestQueryStreamAllocatesPerBlock(t *testing.T) {
	const n = 32
	sess := fdq.NewSession(denseCatalog(t, n))
	stream := func() {
		rows, err := sess.Query(context.Background(), pathQuery())
		if err != nil {
			t.Fatal(err)
		}
		got := 0
		for rows.Next() {
			got++
		}
		if err := rows.Close(); err != nil || got != n*n*n {
			t.Fatalf("streamed %d rows of %d: %v", got, n*n*n, err)
		}
	}
	stream() // plan, indexes and trie are built once, outside the count
	if allocs := testing.AllocsPerRun(5, stream); allocs > n*n*n/64 {
		t.Fatalf("streaming %d rows allocated %.0f objects, want at most one per 64 rows (%d)", n*n*n, allocs, n*n*n/64)
	}
}

// TestAbandonedRowsParksProducer: an iterator nobody reads from or closes
// costs the documented 341 rows of work (rel.BlockSink: four queued blocks of
// 1, 4, 16 and 64 rows, and the 256 the producer holds), then its producer
// parks; Close still finds it and leaves no goroutine behind.
func TestAbandonedRowsParksProducer(t *testing.T) {
	const ahead = 1 + 4 + 16 + 64 + 256
	sess := fdq.NewSession(denseCatalog(t, 20)) // 8 000 result rows
	base := runtime.NumGoroutine()
	t.Cleanup(faultinject.Reset)
	// Armed to count pushes only: the fault would act after 2³⁰ of them.
	faultinject.Arm(faultinject.SiteSinkPush, faultinject.Fault{Kind: faultinject.KindDelay, After: 1 << 30})

	rows, err := sess.Query(context.Background(), pathQuery())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for faultinject.Hits(faultinject.SiteSinkPush) < ahead && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a producer that is not parked runs thousands of rows on in this time
	if got := faultinject.Hits(faultinject.SiteSinkPush); got != ahead {
		t.Fatalf("abandoned iterator's producer pushed %d rows, want it parked at %d", got, ahead)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if rows.Next() {
		t.Fatal("Next after Close returned a row: the blocks queued at Close time must go with the stream")
	}
	settleGoroutines(t, base)
}
