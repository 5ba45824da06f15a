package fdqc_test

// End-to-end client-side tests against a real fdqd server on a loopback
// listener. The server package has its own suite driving this client;
// here the assertions are about the client's contract — iterator
// semantics, error reconstruction, connection reuse and poisoning.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
)

// startServer serves an n×n edge grid (E(x,y) ⋈ E(y,z) yields n³ rows)
// with a "strict" tenant whose governor refuses everything.
func startServer(t *testing.T, n int) string {
	t.Helper()
	cat := fdq.NewCatalog()
	var rows [][]fdq.Value
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows, []fdq.Value{int64(i), int64(j)})
		}
	}
	if err := cat.Define("E", []string{"a", "b"}, rows); err != nil {
		t.Fatal(err)
	}
	return serveCatalog(t, cat)
}

// serveCatalog serves cat on a loopback listener until the test ends.
func serveCatalog(t *testing.T, cat *fdq.Catalog) string {
	t.Helper()
	srv, err := fdqd.New(fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			"strict": {fdq.WithMaxLogBound(-1)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ln.Addr().String()
}

func pathSpec() *fdqc.QuerySpec {
	return &fdqc.QuerySpec{
		Vars: []string{"x", "y", "z"},
		Rels: []fdqc.RelSpec{
			{Name: "E", Vars: []string{"x", "y"}},
			{Name: "E", Vars: []string{"y", "z"}},
		},
	}
}

func TestQueryIterator(t *testing.T) {
	addr := startServer(t, 4)
	c, err := fdqc.Dial(addr, fdqc.WithIOTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Query(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if got := rows.Columns(); len(got) != 3 || got[0] != "x" {
		t.Fatalf("Columns = %v", got)
	}
	if err := rows.Scan(new(fdq.Value)); err == nil {
		t.Fatal("Scan before Next did not fail")
	}
	n := 0
	for rows.Next() {
		var x, y, z fdq.Value
		if err := rows.Scan(&x, &y); err == nil {
			t.Fatal("Scan with wrong arity did not fail")
		}
		if err := rows.Scan(&x, &y, &z); err != nil {
			t.Fatal(err)
		}
		if cur := rows.Row(); cur[0] != x || cur[2] != z {
			t.Fatalf("Row %v disagrees with Scan (%d %d %d)", cur, x, y, z)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Fatalf("streamed %d rows, want 64", n)
	}
	st := rows.Stats()
	if st == nil || st.Rows != 64 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := rows.Close(); err != nil { // idempotent after exhaustion
		t.Fatal(err)
	}

	// The connection is reusable for Count and Collect.
	if n, err := c.Count(context.Background(), pathSpec()); err != nil || n != 64 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	got, st, err := c.Collect(context.Background(), pathSpec())
	if err != nil || len(got) != 64 || st == nil {
		t.Fatalf("Collect = %d rows, stats %v, err %v", len(got), st, err)
	}
}

func TestQueryBusyAndAbandon(t *testing.T) {
	addr := startServer(t, 8)
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Query(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if _, err := c.Query(context.Background(), pathSpec()); err == nil {
		t.Fatal("second in-flight query did not fail")
	}
	// Abandoning mid-stream is not an error, and frees the connection.
	if err := rows.Close(); err != nil {
		t.Fatalf("Close mid-stream: %v", err)
	}
	if n, err := c.Count(context.Background(), pathSpec()); err != nil || n != 512 {
		t.Fatalf("Count after abandon = %d, %v", n, err)
	}
}

func TestTypedRejectAndBadQuery(t *testing.T) {
	addr := startServer(t, 4)
	c, err := fdqc.Dial(addr, fdqc.WithTenant("strict"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, _, err = c.Collect(context.Background(), pathSpec())
	if !errors.Is(err, fdq.ErrBoundExceeded) {
		t.Fatalf("strict tenant error = %v, want ErrBoundExceeded", err)
	}
	var be *fdq.BoundExceededError
	if !errors.As(err, &be) || be.Budget != -1 {
		t.Fatalf("payload did not cross the wire: %+v", be)
	}

	// A bad query is a typed remote error and does not poison the conn.
	bad := pathSpec()
	bad.Rels[0].Name = "NoSuchRelation"
	_, _, err = c.Collect(context.Background(), bad)
	var re *fdqc.RemoteError
	if !errors.As(err, &re) || re.Code != fdqc.CodeBadQuery {
		t.Fatalf("bad query error = %v", err)
	}
	if _, err := c.Count(context.Background(), pathSpec()); !errors.Is(err, fdq.ErrBoundExceeded) {
		t.Fatalf("connection not reusable after bad query: %v", err)
	}
}

func TestContextCancelMidStream(t *testing.T) {
	// 256³ rows are about 50 MB on the wire, more than loopback socket
	// buffers hold; at 64³ (0.8 MB) the whole stream could be written
	// before the cancel arrived, which then had nothing left to stop.
	addr := startServer(t, 256)
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	rows, err := c.Query(ctx, pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after ctx cancel = %v, want context.Canceled", err)
	}
	if err := rows.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after ctx cancel = %v, want context.Canceled", err)
	}
}

func TestBrokenConnection(t *testing.T) {
	addr := startServer(t, 32)
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	c.Close() // transport failure mid-stream
	for rows.Next() {
	}
	if rows.Err() == nil {
		t.Fatal("no error after the transport died mid-stream")
	}
	if _, err := c.Query(context.Background(), pathSpec()); err == nil {
		t.Fatal("broken connection accepted a new query")
	}
}

func TestDialFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := fdqc.Dial(addr, fdqc.WithIOTimeout(time.Second)); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
}

// TestCollectMatchesInProcess: Collect returns the in-process answer byte
// for byte on answers that end inside, on and across frame boundaries, and
// appending to a returned row never reaches the next one, which may start a
// new frame.
func TestCollectMatchesInProcess(t *testing.T) {
	cat := fdq.NewCatalog()
	var grid, line [][]fdq.Value
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			grid = append(grid, []fdq.Value{int64(i), int64(j)})
		}
	}
	// The server's frames hold 1, 4, 16, ..., 4096 rows: 5,461 rows end on
	// the seventh frame's last row.
	for i := 0; i < 1+4+16+64+256+1024+4096; i++ {
		line = append(line, []fdq.Value{int64(i), -7919 * int64(i)})
	}
	for name, rows := range map[string][][]fdq.Value{"E": grid, "L": line, "F": {{100, 0}}} {
		if err := cat.Define(name, []string{"a", "b"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	c, err := fdqc.Dial(serveCatalog(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	disjoint := pathSpec()
	disjoint.Rels[1].Name = "F" // F's only y, 100, is no y of E
	for _, tc := range []struct {
		name string
		spec *fdqc.QuerySpec
		rows int
	}{
		{"empty", disjoint, 0},
		{"ends on a frame boundary", &fdqc.QuerySpec{Vars: []string{"x", "y"}, Rels: []fdqc.RelSpec{{Name: "L", Vars: []string{"x", "y"}}}}, 5461},
		{"several full frames", pathSpec(), 24 * 24 * 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tc.spec.Query()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fdq.NewSession(cat).Collect(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.Collect(context.Background(), tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != tc.rows || !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("got %d rows, in process %d, want %d; or they differ", len(got), len(want), tc.rows)
			}
			for i := 0; i+1 < len(got); i++ {
				_ = append(got[i], -1)
				if !slices.Equal(got[i+1], want[i+1]) {
					t.Fatalf("row %d = %v after appending to row %d, want %v", i+1, got[i+1], i, want[i+1])
				}
			}
		})
	}
}

// TestCollectAllocationsPerRow is the ceiling on what a warm loopback
// Collect allocates, client and server together, per row it returns. A
// row's storage is 48 bytes (three values and its slice header); copying
// rows out of a per-stream decode buffer into doubling storage took 206.
func TestCollectAllocationsPerRow(t *testing.T) {
	const n, collects = 48, 5
	addr := startServer(t, n)
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	run := func() {
		if got, _, err := c.Collect(context.Background(), pathSpec()); err != nil || len(got) != n*n*n {
			t.Fatalf("%d rows, %v", len(got), err)
		}
	}
	run() // plans, binds, builds the tries
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range collects {
		run()
	}
	runtime.ReadMemStats(&after)
	perRow := float64(after.TotalAlloc-before.TotalAlloc) / (collects * n * n * n)
	if t.Logf("%.0f bytes per row", perRow); perRow > 130 {
		t.Errorf("a warm Collect allocates %.0f bytes per row, want at most 130", perRow)
	}
}
