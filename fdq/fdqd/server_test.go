package fdqd_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
)

// gridCatalog returns a catalog whose relation E holds the complete n×n
// grid; the two-hop path query over it yields n³ rows.
func gridCatalog(t *testing.T, n int) *fdq.Catalog {
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

func pathSpec() *fdqc.QuerySpec {
	return &fdqc.QuerySpec{
		Vars: []string{"x", "y", "z"},
		Rels: []fdqc.RelSpec{{Name: "E", Vars: []string{"x", "y"}}, {Name: "E", Vars: []string{"y", "z"}}},
	}
}

// startServer runs a server on a loopback listener and tears it down with
// the test.
func startServer(t *testing.T, cfg fdqd.Config) (*fdqd.Server, string) {
	t.Helper()
	srv, err := fdqd.New(cfg)
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
	return srv, ln.Addr().String()
}

func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
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

// settleConns waits for the server's open-connection count to reach zero.
// settleGoroutines' allowance can be met while the last handler is still
// between its final read and its deferred OpenConns.Add(-1), so the count
// is waited for, not sampled once.
func settleConns(t *testing.T, srv *fdqd.Server, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().OpenConns.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.Metrics().OpenConns.Load(); n != 0 {
		t.Fatalf("%d connections still open after %s", n, after)
	}
}

// TestEndToEndByteIdentity: the streamed network result must equal the
// in-process result byte for byte, stats included.
func TestEndToEndByteIdentity(t *testing.T) {
	cat := gridCatalog(t, 12) // 1728 result rows, several batch frames
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	got, stats, err := c.Collect(ctx, pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	q, err := pathSpec().Query()
	if err != nil {
		t.Fatal(err)
	}
	want, err := fdq.NewSession(cat).Collect(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("network %d rows, in-process %d", len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("row %d col %d: network %d, in-process %d", i, j, got[i][j], want[i][j])
			}
		}
	}
	if stats == nil || stats.Rows != len(want) {
		t.Fatalf("stats did not cross the wire: %+v", stats)
	}
}

// TestClientCollectRowsAreIndependent: Client.Collect decodes rows into
// shared chunks; an append or write to one returned row may not show up in
// its neighbours, across chunk boundaries included.
func TestClientCollectRowsAreIndependent(t *testing.T) {
	cat := gridCatalog(t, 8) // 512 rows: chunks of 1, 4, 16, 64, 256 and 171 rows
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	want, _, err := c.Collect(ctx, pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Collect(ctx, pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 512 {
		t.Fatalf("got %d rows, want 512", len(got))
	}
	for i := 0; i < len(got); i += 2 {
		got[i][0] = -7
		_ = append(got[i], -1, -2, -3)
	}
	for i := 1; i < len(got); i += 2 {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("row %d = %v after mutating its neighbours, want %v", i, got[i], want[i])
		}
	}
}

// TestConnectionReuse: several queries back to back on one connection,
// including one closed early mid-stream.
func TestConnectionReuse(t *testing.T) {
	cat := gridCatalog(t, 10)
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	for round := 0; round < 3; round++ {
		rows, err := c.Query(ctx, pathSpec())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		n := 0
		for rows.Next() {
			n++
			if round == 1 && n == 5 {
				break // abandon mid-stream; Close must recover the connection
			}
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("round %d close: %v", round, err)
		}
		if round != 1 && n != 1000 {
			t.Fatalf("round %d: %d rows, want 1000", round, n)
		}
	}
}

// TestTypedErrorsAcrossWire: admission refusals and budget trips must
// errors.Is-match the fdq sentinels on the client side, payloads intact.
func TestTypedErrorsAcrossWire(t *testing.T) {
	cat := gridCatalog(t, 12)
	_, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			"strict": {fdq.WithMaxLogBound(1)}, // rejects the path query outright
			"rows":   {fdq.WithMaxRows(100)},
			"mem":    {fdq.WithMaxMemory(256)},
		},
	})
	ctx := context.Background()

	t.Run("bound", func(t *testing.T) {
		c, err := fdqc.Dial(addr, fdqc.WithTenant("strict"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, _, err = c.Collect(ctx, pathSpec())
		if !errors.Is(err, fdq.ErrBoundExceeded) {
			t.Fatalf("want ErrBoundExceeded across the wire, got %v", err)
		}
		var be *fdq.BoundExceededError
		if !errors.As(err, &be) || be.Budget != 1 || be.LogBound <= be.Budget {
			t.Fatalf("payload drifted: %+v", be)
		}
	})
	t.Run("rows", func(t *testing.T) {
		c, err := fdqc.Dial(addr, fdqc.WithTenant("rows"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, _, err = c.Collect(ctx, pathSpec())
		if !errors.Is(err, fdq.ErrRowsExceeded) {
			t.Fatalf("want ErrRowsExceeded across the wire, got %v", err)
		}
		var re *fdq.RowsExceededError
		if !errors.As(err, &re) || re.Limit != 100 {
			t.Fatalf("payload drifted: %+v", re)
		}
	})
	t.Run("mem", func(t *testing.T) {
		c, err := fdqc.Dial(addr, fdqc.WithTenant("mem"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, _, err = c.Collect(ctx, pathSpec())
		if !errors.Is(err, fdq.ErrMemoryExceeded) {
			t.Fatalf("want ErrMemoryExceeded across the wire, got %v", err)
		}
		var me *fdq.MemoryExceededError
		if !errors.As(err, &me) || me.Limit != 256 || me.Used <= me.Limit {
			t.Fatalf("payload drifted: %+v", me)
		}
	})
	t.Run("unknown-tenant-uses-default", func(t *testing.T) {
		c, err := fdqc.Dial(addr, fdqc.WithTenant("no-such-tenant"))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, _, err := c.Collect(ctx, pathSpec()); err != nil {
			t.Fatalf("default tenant is ungoverned, want success: %v", err)
		}
	})
}

// TestCountMode: COUNT-only queries cross no row frames, only the
// cardinality.
func TestCountMode(t *testing.T) {
	cat := gridCatalog(t, 9)
	srv, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n, err := c.Count(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n != 9*9*9 {
		t.Fatalf("count = %d, want %d", n, 9*9*9)
	}
	if rows := srv.Metrics().RowsStreamed.Load(); rows != 0 {
		t.Fatalf("COUNT query streamed %d rows", rows)
	}
}

// TestClientDisconnectMidStream is the abandoned-client regression test:
// a client that vanishes mid-stream must not leak the server's producer
// goroutines or its admission slot — the next client on the same tenant
// must be admitted promptly.
func TestClientDisconnectMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	// 100×100 grid: the 10⁶-row result is megabytes on the wire — far more
	// than loopback socket buffering, so the server is genuinely mid-stream
	// (parked on a write) when the client vanishes.
	cat := gridCatalog(t, 100)
	srv, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			// One admission slot: a leaked hold would starve the next query.
			"solo": {fdq.WithPolicy(fdq.PolicyQueue), fdq.WithMaxLogBound(0.5), fdq.WithQueryTimeout(time.Hour)},
		},
	})
	ctx := context.Background()

	c, err := fdqc.Dial(addr, fdqc.WithTenant("solo"))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := c.Query(ctx, pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// Vanish: close the raw connection without a cancel frame or drain.
	c.Close()

	// The admission slot must come back: a second client's query on the
	// same single-slot tenant succeeds (it queues until the server notices
	// the disconnect and releases).
	c2, err := fdqc.Dial(addr, fdqc.WithTenant("solo"))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	n, err := c2.Count(qctx, pathSpec())
	if err != nil {
		t.Fatalf("query after disconnect: %v", err)
	}
	if n != 100*100*100 {
		t.Fatalf("count %d, want %d", n, 100*100*100)
	}
	c2.Close()
	// Every server-side goroutine behind the dead connection must settle
	// (startServer's cleanup shuts the server down after this check, so
	// only the serve/accept goroutines remain above base here).
	settleGoroutines(t, base+3)
	settleConns(t, srv, "client disconnect")
}

// TestCancelPropagation: cancelling the query context mid-stream reaches
// the server, which answers with a canceled error frame.
func TestCancelPropagation(t *testing.T) {
	// As in the disconnect test, the result must dwarf socket buffering so
	// the cancel frame genuinely arrives mid-stream.
	cat := gridCatalog(t, 100)
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
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
		t.Fatalf("want context.Canceled across the wire, got %v", err)
	}
}

// TestGracefulDrain: Shutdown lets an in-flight query finish streaming,
// refuses new queries, and drops idle connections.
func TestGracefulDrain(t *testing.T) {
	cat := gridCatalog(t, 16)
	srv, err := fdqd.New(fdqd.Config{Catalog: cat})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	busy, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	rows, err := busy.Query(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	shutErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- srv.Shutdown(ctx)
	}()

	// The in-flight stream must complete despite the drain.
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("in-flight query broken by drain: %v", err)
	}
	if n != 16*16*16 {
		t.Fatalf("%d rows, want %d", n, 16*16*16)
	}
	wg.Wait()
	if err := <-shutErr; err != nil {
		t.Fatalf("drain was forced: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve after drain: %v", err)
	}
	// The idle connection was dropped; new dials are refused.
	if _, err := fdqc.Dial(addr); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestHTTPSidecar: /healthz flips to 503 on drain and /metrics exposes
// the admission counters.
func TestHTTPSidecar(t *testing.T) {
	cat := gridCatalog(t, 12)
	srv, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{"strict": {fdq.WithMaxLogBound(1)}},
	})
	hs := httptest.NewServer(srv.HTTPHandler())
	defer hs.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}

	ctx := context.Background()
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Collect(ctx, pathSpec()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	cs, err := fdqc.Dial(addr, fdqc.WithTenant("strict"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cs.Collect(ctx, pathSpec()); !errors.Is(err, fdq.ErrBoundExceeded) {
		t.Fatalf("want reject, got %v", err)
	}
	cs.Close()

	_, body := get("/metrics")
	for _, want := range []string{
		"fdqd_admitted_total 1",
		"fdqd_rejected_total 1",
		"fdqd_rows_streamed_total 1728",
		"fdqd_query_duration_seconds_count 2",
		"fdqd_queue_wait_seconds_bucket",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestBadQueryAcrossWire: an unresolvable spec (unknown relation) answers
// with a bad-query error frame, and the connection stays open for a
// corrected retry.
func TestBadQueryAcrossWire(t *testing.T) {
	cat := gridCatalog(t, 6)
	_, addr := startServer(t, fdqd.Config{Catalog: cat})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	bad := &fdqc.QuerySpec{Vars: []string{"x", "y"}, Rels: []fdqc.RelSpec{{Name: "NoSuchRel", Vars: []string{"x", "y"}}}}
	_, _, err = c.Collect(ctx, bad)
	var re *fdqc.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if got, _, err := c.Collect(ctx, pathSpec()); err != nil || len(got) != 6*6*6 {
		t.Fatalf("connection unusable after bad query: %d rows, %v", len(got), err)
	}
}

// An FD spec with neither a guard nor a via builtin is a bad query: it is
// refused at resolve, before the governor sees it, for rows and for a count.
func TestFDWithoutGuardOrViaIsBadQuery(t *testing.T) {
	srv, addr := startServer(t, fdqd.Config{Catalog: gridCatalog(t, 6)})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := &fdqc.QuerySpec{
		Vars: []string{"x", "y", "z"},
		Rels: []fdqc.RelSpec{{Name: "E", Vars: []string{"x", "y"}}},
		FDs:  []fdqc.FDSpec{{From: []string{"x"}, To: []string{"z"}}},
	}
	ctx := context.Background()
	_, _, collectErr := c.Collect(ctx, spec)
	_, countErr := c.Count(ctx, spec)
	for call, err := range map[string]error{"Collect": collectErr, "Count": countErr} {
		var re *fdqc.RemoteError
		if !errors.As(err, &re) || re.Code != fdqc.CodeBadQuery || !strings.Contains(re.Msg, "x -> z") {
			t.Fatalf("%s: want a bad-query error naming x -> z, got %v", call, err)
		}
	}
	if m := srv.Metrics(); m.Admitted.Load() != 0 || m.Rejected.Load() != 0 {
		t.Fatalf("admission saw the refused spec: %d admitted, %d rejected", m.Admitted.Load(), m.Rejected.Load())
	}
}

// An instance that violates a guarded FD is a bad query whose message, on
// the client's side of the wire, names the FD in the spec's variables.
func TestViolatedFDNamedOverTheWire(t *testing.T) {
	_, addr := startServer(t, fdqd.Config{Catalog: gridCatalog(t, 6)})
	c, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	spec := &fdqc.QuerySpec{
		Vars: []string{"v0", "v1"},
		Rels: []fdqc.RelSpec{{Name: "E", Vars: []string{"v0", "v1"}}},
		FDs:  []fdqc.FDSpec{{Guard: "E", From: []string{"v0"}, To: []string{"v1"}}},
	}
	_, _, err = c.Collect(context.Background(), spec)
	var re *fdqc.RemoteError
	if !errors.As(err, &re) || re.Code != fdqc.CodeBadQuery || !strings.Contains(re.Msg, "relation E violates FD {v0}->{v1}") {
		t.Fatalf("want a bad-query error naming {v0}->{v1}, got %v", err)
	}
}
