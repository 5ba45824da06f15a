package fdqc_test

// Client resilience against a hostile network, driven through the
// deterministic chaos proxy: automatic retry where it is safe, typed
// surrender where it is not, and context authority over every phase of a
// connection's life.

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/fdq/fdqc"
	"repro/internal/chaosproxy"
)

// ackSize is the encoded size of the server's hello-ack frame — used to
// aim down-direction faults past the handshake, into the query stream.
func ackSize(server string) int64 {
	p, _ := json.Marshal(fdqc.HelloAck{Version: fdqc.ProtocolVersion, Server: server})
	return int64(5 + len(p))
}

// TestQueryRetriesAcrossReset: the first connection dies with a TCP reset
// before the query delivers anything; a client with a RetryPolicy
// reconnects and re-runs invisibly, and the result is byte-identical to a
// direct run.
func TestQueryRetriesAcrossReset(t *testing.T) {
	addr := startServer(t, 8)

	direct, err := fdqc.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	want, _, err := direct.Collect(context.Background(), pathSpec())
	if err != nil {
		t.Fatal(err)
	}

	// Reset connection 0 just past the hello ack: the handshake succeeds,
	// the query's first response frame never arrives. Connection 1 is clean.
	p, err := chaosproxy.New(addr, chaosproxy.Schedule{
		Name:  "reset-first-conn",
		Rules: []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.RST, Off: ackSize("fdqd") + 4, Conn: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := fdqc.Dial(p.Addr(),
		fdqc.WithIOTimeout(2*time.Second),
		fdqc.WithRetryPolicy(fdqc.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Budget: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, _, err := c.Collect(context.Background(), pathSpec())
	if err != nil {
		t.Fatalf("retry did not absorb the reset: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retried result drifted: %d rows vs %d", len(got), len(want))
	}
}

// TestDialContextBlackhole is the satellite regression: a blackholed
// address (TCP connects, the hello ack never comes) must fail at the
// caller's deadline — not hang for the socket's 30s default.
func TestDialContextBlackhole(t *testing.T) {
	addr := startServer(t, 4)
	p, err := chaosproxy.New(addr, chaosproxy.Schedule{
		Name:  "blackhole-hello",
		Rules: []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.Blackhole, Off: 0, Conn: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = fdqc.DialContext(ctx, p.Addr())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want ctx.DeadlineExceeded from a blackholed hello, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Dial outlived its context by %v", d)
	}
}

// TestMidStreamDropSurfacesTransportError: once row batches have been
// consumed, a dead connection must NOT be silently retried — re-running
// could double-count admission budgets and replay rows. The caller gets a
// typed *TransportError with MidStream set, on one server connection only.
func TestMidStreamDropSurfacesTransportError(t *testing.T) {
	addr := startServer(t, 12) // 1728 rows, several batches
	p, err := chaosproxy.New(addr, chaosproxy.Schedule{
		Name: "drop-mid-stream",
		// Small varints, ~3 bytes a row: the ramp's first 341 rows take
		// ~1.1KiB and its 1024-row frame runs to ~4.2KiB, so 2KiB lands
		// inside that frame, well short of the ~5.3KiB full stream.
		Rules: []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.Drop, Off: 2 << 10, Conn: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := fdqc.Dial(p.Addr(),
		fdqc.WithIOTimeout(2*time.Second),
		fdqc.WithRetryPolicy(fdqc.RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Budget: 5 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rows, err := c.Query(context.Background(), pathSpec())
	if err != nil {
		t.Fatalf("the stream's head crossed before the drop; Query must succeed: %v", err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	var te *fdqc.TransportError
	if err := rows.Err(); !errors.As(err, &te) || !te.MidStream {
		t.Fatalf("want mid-stream *TransportError after %d rows, got %v", n, err)
	}
	if n == 0 {
		t.Fatal("drop at 2KiB should land after the first batch")
	}
	if ok, _ := fdqc.Retryable(rows.Err()); ok {
		t.Fatal("a mid-stream transport error must never be retryable")
	}
}

// TestCancelGraceUnsticksBlackholedQuery: a cancelled query on a
// connection whose downstream went silent must surface ctx's error within
// roughly the cancel grace, not hang until the IO timeout.
func TestCancelGraceUnsticksBlackholedQuery(t *testing.T) {
	addr := startServer(t, 12)
	p, err := chaosproxy.New(addr, chaosproxy.Schedule{
		Name:  "blackhole-mid-stream",
		Rules: []chaosproxy.Rule{{Dir: chaosproxy.Down, Kind: chaosproxy.Blackhole, Off: 4 << 10, Conn: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c, err := fdqc.Dial(p.Addr(),
		fdqc.WithIOTimeout(30*time.Second)) // deliberately long: the 2 s cancel grace must win
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
	start := time.Now()
	for rows.Next() {
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled query stayed stuck %v past its grace", d)
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
