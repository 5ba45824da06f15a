package fdqd_test

// Overload-protection and chaos-fault leak tests: the server must refuse
// load with typed frames (never by hanging or crashing), evict peers that
// stall mid-frame, and — whatever a hostile network does to a connection —
// return every goroutine and admission slot to baseline once the peer is
// gone.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
	"repro/internal/chaosproxy"
)

// TestOverCapacityRefusal: past MaxConns, a new connection gets a typed
// *OverCapacityError carrying the server's retry-after hint — and a slot
// freed by a disconnect is usable again.
func TestOverCapacityRefusal(t *testing.T) {
	cat := gridCatalog(t, 4)
	srv, addr := startServer(t, fdqd.Config{Catalog: cat, MaxConns: 2, RetryAfter: 700 * time.Millisecond})

	c1, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	_, err = fdqc.Dial(addr, fdqc.WithIOTimeout(5*time.Second))
	var oe *fdqc.OverCapacityError
	if !errors.As(err, &oe) {
		t.Fatalf("third dial past the cap: want *OverCapacityError, got %v", err)
	}
	if oe.RetryAfter != 700*time.Millisecond {
		t.Fatalf("retry-after hint lost: %v", oe.RetryAfter)
	}
	if n := srv.Metrics().OverCapacity.Load(); n < 1 {
		t.Fatalf("OverCapacity metric = %d", n)
	}

	// Freeing a slot readmits: the refusal is load shedding, not a ban.
	c2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := fdqc.Dial(addr)
		if err == nil {
			c4.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial after freeing a slot: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOverCapacityRetryLoop: a client with a RetryPolicy rides out the
// refusal — backing off at least the server's hint — and connects once
// capacity frees up.
func TestOverCapacityRetryLoop(t *testing.T) {
	cat := gridCatalog(t, 4)
	_, addr := startServer(t, fdqd.Config{Catalog: cat, MaxConns: 1, RetryAfter: 150 * time.Millisecond})

	holder, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		holder.Close()
	}()

	start := time.Now()
	c, err := fdqc.Dial(addr, fdqc.WithRetryPolicy(fdqc.RetryPolicy{
		MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 300 * time.Millisecond, Budget: 10 * time.Second,
	}))
	if err != nil {
		t.Fatalf("retrying dial never got in: %v", err)
	}
	defer c.Close()
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("connected after %v — the %v retry-after floor was ignored", d, 150*time.Millisecond)
	}
	if n, err := c.Count(context.Background(), pathSpec()); err != nil || n != 64 {
		t.Fatalf("query after retry-admit: %d, %v", n, err)
	}
}

// TestTenantQuota: one tenant at its connection quota is refused with a
// typed over-capacity frame; other tenants are untouched.
func TestTenantQuota(t *testing.T) {
	cat := gridCatalog(t, 4)
	srv, addr := startServer(t, fdqd.Config{
		Catalog:      cat,
		Tenants:      map[string][]fdq.GovernorOption{"metered": {}},
		TenantQuotas: map[string]int{"metered": 1},
	})

	cm, err := fdqc.Dial(addr, fdqc.WithTenant("metered"))
	if err != nil {
		t.Fatal(err)
	}
	defer cm.Close()

	_, err = fdqc.Dial(addr, fdqc.WithTenant("metered"))
	var oe *fdqc.OverCapacityError
	if !errors.As(err, &oe) {
		t.Fatalf("second metered conn: want *OverCapacityError, got %v", err)
	}
	if n := srv.Metrics().QuotaRefused.Load(); n != 1 {
		t.Fatalf("QuotaRefused metric = %d", n)
	}
	// The default tenant has no quota: unaffected.
	cd, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatalf("default-tenant conn refused by another tenant's quota: %v", err)
	}
	cd.Close()
	// Quota is per-open-connection, not per-lifetime.
	cm.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := fdqc.Dial(addr, fdqc.WithTenant("metered"))
		if err == nil {
			c2.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metered conn after freeing quota: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSlowLorisEviction: a peer that starts a frame and stalls trips the
// progress deadline — the server closes the connection instead of holding
// a reader goroutine hostage byte by byte.
func TestSlowLorisEviction(t *testing.T) {
	cat := gridCatalog(t, 4)
	srv, addr := startServer(t, fdqd.Config{Catalog: cat, FrameTimeout: 150 * time.Millisecond})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := json.Marshal(fdqc.Hello{Version: fdqc.ProtocolVersion})
	if err := fdqc.WriteFrame(conn, fdqc.FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fdqc.ReadFrame(conn); err != nil || ft != fdqc.FrameHelloAck {
		t.Fatalf("hello ack: %c %v", ft, err)
	}

	// Two bytes of a frame header, then silence.
	if _, err := conn.Write([]byte{0x40, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the stalled connection open")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("eviction took %v, want ~FrameTimeout", d)
	}
	if n := srv.Metrics().FrameTimeouts.Load(); n != 1 {
		t.Fatalf("FrameTimeouts metric = %d", n)
	}
}

// TestIdleEviction: a connection idle past IdleTimeout is closed and
// counted — idleness is measured between frames, so it never fires on a
// long-running query.
func TestIdleEviction(t *testing.T) {
	cat := gridCatalog(t, 4)
	srv, addr := startServer(t, fdqd.Config{Catalog: cat, IdleTimeout: 150 * time.Millisecond})

	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload, _ := json.Marshal(fdqc.Hello{Version: fdqc.ProtocolVersion})
	if err := fdqc.WriteFrame(conn, fdqc.FrameHello, payload); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := fdqc.ReadFrame(conn); err != nil || ft != fdqc.FrameHelloAck {
		t.Fatalf("hello ack: %c %v", ft, err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) && err == nil {
		t.Fatal("server kept the idle connection open")
	}
	if n := srv.Metrics().IdleEvicted.Load(); n != 1 {
		t.Fatalf("IdleEvicted metric = %d", n)
	}
}

// helloSize is the encoded size of this test suite's hello frame for
// tenant name tn — used to aim up-direction faults past the handshake.
func helloSize(tn string) int64 {
	p, _ := json.Marshal(fdqc.Hello{Version: fdqc.ProtocolVersion, Tenant: tn})
	return int64(5 + len(p))
}

// TestFaultModeLeakTable extends the PR 8 mid-stream-disconnect test into
// a table over chaos fault modes: whatever the network does to the
// connection — reset, silent blackhole, clean drop, in either direction —
// the server must release the tenant's (single) admission slot, settle
// its goroutines to baseline, and keep serving.
func TestFaultModeLeakTable(t *testing.T) {
	base := runtime.NumGoroutine()
	// 60×60 grid: the 216k-row result is megabytes on the wire — far more
	// than loopback socket buffering, so the server is genuinely
	// mid-stream when the fault fires.
	cat := gridCatalog(t, 60)
	srv, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			// One admission slot: a leaked hold would starve the follow-up query.
			"solo": {fdq.WithPolicy(fdq.PolicyQueue), fdq.WithMaxLogBound(0.5), fdq.WithQueryTimeout(time.Hour)},
		},
	})

	modes := []struct {
		name  string
		rules []chaosproxy.Rule
	}{
		{"rst-down", []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.RST, Off: 4096, Conn: -1}}},
		{"drop-down", []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.Drop, Off: 4096, Conn: -1}}},
		{"blackhole-down", []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.Blackhole, Off: 4096, Conn: -1}}},
		{"rst-up-mid-query-frame", []chaosproxy.Rule{{Dir: chaosproxy.Up, Kind: chaosproxy.RST, Off: helloSize("solo") + 10, Conn: -1}}},
		{"drop-up-mid-query-frame", []chaosproxy.Rule{{Dir: chaosproxy.Up, Kind: chaosproxy.Drop, Off: helloSize("solo") + 10, Conn: -1}}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			p, err := chaosproxy.New(addr, chaosproxy.Schedule{Name: mode.name, Rules: mode.rules})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()

			// Run one query into the fault. Every outcome is legal here —
			// the assertions are about what the server holds afterwards.
			func() {
				c, err := fdqc.Dial(p.Addr(), fdqc.WithTenant("solo"),
					fdqc.WithIOTimeout(300*time.Millisecond), fdqc.WithDialTimeout(2*time.Second))
				if err != nil {
					return // up-direction faults can kill the handshake
				}
				defer c.Close()
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				rows, err := c.Query(ctx, pathSpec())
				if err != nil {
					return
				}
				for rows.Next() {
				}
				rows.Close()
			}()
			p.Close()

			// The slot must come back: a direct query on the same
			// single-slot tenant succeeds once the server notices.
			qctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			c2, err := fdqc.Dial(addr, fdqc.WithTenant("solo"))
			if err != nil {
				t.Fatal(err)
			}
			defer c2.Close()
			n, err := c2.Count(qctx, pathSpec())
			if err != nil {
				t.Fatalf("query after %s: %v", mode.name, err)
			}
			if n != 60*60*60 {
				t.Fatalf("count %d, want %d", n, 60*60*60)
			}
			c2.Close()

			if got := srv.TenantGovernor("solo").InFlight(); got != 0 {
				t.Fatalf("%d admission slots still held after %s", got, mode.name)
			}
			settleGoroutines(t, base+3)
			settleConns(t, srv, mode.name)
		})
	}
}

// churnSchedules is every chaos class at once. The terminal offsets are
// sized to a churning connection's short life — a few small queries and an
// abandoned 512-row stream — so every class fires during the run.
func churnSchedules() []chaosproxy.Schedule {
	return []chaosproxy.Schedule{
		chaosproxy.Clean(),
		{Name: "latency", Seed: 9, Jitter: 200 * time.Microsecond, Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Up, Kind: chaosproxy.Latency, Conn: -1, Delay: 500 * time.Microsecond},
			{Dir: chaosproxy.Down, Kind: chaosproxy.Latency, Conn: -1, Delay: 500 * time.Microsecond},
		}},
		{Name: "chunk", Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Up, Kind: chaosproxy.Chunk, Conn: -1, N: 9},
			{Dir: chaosproxy.Down, Kind: chaosproxy.Chunk, Conn: -1, N: 7},
		}},
		{Name: "throttle", Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Down, Kind: chaosproxy.Throttle, Conn: -1, BPS: 1 << 20},
		}},
		{Name: "rst-1k", Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Down, Kind: chaosproxy.RST, Off: 1 << 10, Conn: -1},
		}},
		{Name: "drop-up-300", Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Up, Kind: chaosproxy.Drop, Off: 300, Conn: -1},
		}},
		{Name: "blackhole-2k", Rules: []chaosproxy.Rule{
			{Dir: chaosproxy.Down, Kind: chaosproxy.Blackhole, Off: 2 << 10, Conn: -1},
		}},
	}
}

// typedChurnError reports whether err is something a resilient caller can
// classify and act on. Chaos guarantees plenty of these; anything else is
// a contract breach.
func typedChurnError(err error) bool {
	var te *fdqc.TransportError
	var pe *fdqc.ProtocolError
	var re *fdqc.RemoteError
	var oc *fdqc.OverCapacityError
	return errors.As(err, &te) || errors.As(err, &pe) || errors.As(err, &re) ||
		errors.As(err, &oc) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// churnWorker runs one connection's six-op cycle twice through the proxy
// at addr, starting at op first, and hands every error to check. A failed
// connection is dropped and redialled at the next op, as a resilient
// caller would.
func churnWorker(addr string, first int, check func(error)) {
	limited, abandon := *pathSpec(), *pathSpec()
	limited.Limit, abandon.Limit = 8, 512
	var c *fdqc.Client
	drop := func() {
		if c != nil {
			c.Close()
			c = nil
		}
	}
	defer drop()
	fail := func(err error) {
		if err != nil {
			drop()
			check(err)
		}
	}
	for i := first; i < first+12; i++ {
		if c == nil {
			cc, err := fdqc.Dial(addr, fdqc.WithTenant("churn"),
				fdqc.WithIOTimeout(300*time.Millisecond), fdqc.WithDialTimeout(2*time.Second))
			if err != nil {
				fail(err)
				continue
			}
			c = cc
		}
		switch i % 6 {
		case 0: // a small query, run to completion
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_, err := c.Count(ctx, &limited)
			cancel()
			fail(err)
		case 1: // abandon politely: one row, then Close (a cancel frame)
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			rows, err := c.Query(ctx, &abandon)
			if err == nil {
				rows.Next()
				err = rows.Close()
			}
			cancel()
			fail(err)
		case 2: // abandon rudely: one row, then sever the connection
			// No deadline: this Rows never finishes, so a cancellable
			// context would leave its cancel watcher out for the full grace.
			rows, err := c.Query(context.Background(), &abandon)
			if err == nil && !rows.Next() {
				err = rows.Err()
			}
			drop()
			fail(err)
		case 3: // an impatient caller: most queries beat 25 ms, some do not
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			_, err := c.Count(ctx, &limited)
			cancel()
			fail(err)
		case 4: // goodbye, and a fresh dial at the next op
			drop()
		case 5: // hold the open connection idle into the next op
		}
	}
}

// TestConcurrentChurnLeavesNothingBehind: connections churning at once
// through every chaos class — completed, abandoned and severed queries,
// deadlines, redials, idle holds — see only typed errors, and once the
// proxies close the server holds no admission slot, connection or
// goroutine beyond its baseline. The tenant queues, so every admitted
// query holds semaphore units until it releases them.
func TestConcurrentChurnLeavesNothingBehind(t *testing.T) {
	const workersPerSchedule = 4
	base := runtime.NumGoroutine()
	cat := gridCatalog(t, 12)
	q, err := pathSpec().Query()
	if err != nil {
		t.Fatal(err)
	}
	ex, err := cat.Session().Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			// Room for four path queries at once; the rest wait their turn.
			"churn": {fdq.WithPolicy(fdq.PolicyQueue), fdq.WithMaxLogBound(ex.LogBound + 2)},
		},
	})

	var typed atomic.Int64
	var wg sync.WaitGroup
	var proxies []*chaosproxy.Proxy
	for si, sched := range churnSchedules() {
		p, err := chaosproxy.New(addr, sched)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		proxies = append(proxies, p)
		for w := 0; w < workersPerSchedule; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Staggered start ops: the fleet runs the whole mix from the first beat.
				churnWorker(p.Addr(), si*workersPerSchedule+w, func(err error) {
					if typedChurnError(err) {
						typed.Add(1)
					} else {
						t.Errorf("%s: untyped error: %v", sched.Name, err)
					}
				})
			}()
		}
	}
	wg.Wait()
	for _, p := range proxies {
		p.Close()
	}
	if typed.Load() == 0 {
		t.Fatal("no chaos class surfaced an error: the faults never fired")
	}

	settleConns(t, srv, "the churn")
	settleGoroutines(t, base+3)
	gov := srv.TenantGovernor("churn")
	deadline := time.Now().Add(5 * time.Second)
	for gov.InFlight() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := gov.InFlight(); n != 0 {
		t.Fatalf("%d admission units still held after the churn", n)
	}
}
