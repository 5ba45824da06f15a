package fdqd_test

// Streaming-path tests: what a row frame carries and when it leaves.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
	"repro/internal/faultinject"
)

// TestRowsStreamedCountsDecodedRows: fdqd_rows_streamed_total counts a row
// once its frame was written — on a stream that ends in an error or a
// cancel, exactly the rows the client decoded, not the rows the server
// pulled from its iterator before it noticed.
func TestRowsStreamedCountsDecodedRows(t *testing.T) {
	// As in TestCancelPropagation, the unlimited result must dwarf socket
	// buffering so that the cancel genuinely lands mid-stream.
	cat := gridCatalog(t, 100)
	srv, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{"rows": {fdq.WithMaxRows(300)}},
	})
	for _, tc := range []struct {
		name, tenant string
		limit        int // the query's LIMIT (0 = none)
		cancelAfter  int // cancel the query context after this many rows (0 = never)
		wantErr      error
	}{
		{"row-budget trip", "rows", 0, 0, fdq.ErrRowsExceeded},
		{"mid-stream cancel", "", 0, 700, context.Canceled},
		{"complete stream", "", 5000, 0, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := fdqc.Dial(addr, fdqc.WithTenant(tc.tenant))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			before := srv.Metrics().RowsStreamed.Load()
			spec := pathSpec()
			spec.Limit = tc.limit
			rows, err := c.Query(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			decoded := 0
			for rows.Next() {
				if decoded++; decoded == tc.cancelAfter {
					cancel()
				}
			}
			if err := rows.Err(); !errors.Is(err, tc.wantErr) {
				t.Fatalf("stream ended with %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && decoded != tc.limit {
				t.Fatalf("decoded %d rows of %d", decoded, tc.limit)
			}
			if got := srv.Metrics().RowsStreamed.Load() - before; got != int64(decoded) {
				t.Fatalf("server reports %d rows streamed, the client decoded %d", got, decoded)
			}
		})
	}
}

// TestFirstRowDoesNotWaitForABatch: the first row crosses the wire the
// moment it exists. The producer stalls for a second on its second row; a
// server that held the first frame until a full batch was ready would
// make the client wait that second out.
func TestFirstRowDoesNotWaitForABatch(t *testing.T) {
	cat := gridCatalog(t, 10) // 1 000 result rows
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const stall = time.Second
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.SiteSinkPush, faultinject.Fault{Kind: faultinject.KindDelay, After: 1, Times: 1, Delay: stall})

	start := time.Now()
	rows, err := c.Query(context.Background(), pathSpec())
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
