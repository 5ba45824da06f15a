package fdqc

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/fdq"
)

// DialOption configures a Client.
type DialOption func(*Client)

// WithTenant sets the admission-control identity sent in the hello frame;
// the server routes the connection's queries through that tenant's
// Governor. The empty tenant uses the server's default.
func WithTenant(name string) DialOption { return func(c *Client) { c.tenant = name } }

// WithIOTimeout bounds each single frame read/write on the socket
// (default 30s). It is a liveness bound on the peer, not a query
// deadline — a slow query keeps the connection alive by streaming
// batches; use context deadlines for query time budgets.
func WithIOTimeout(d time.Duration) DialOption { return func(c *Client) { c.ioTimeout = d } }

// WithDialTimeout bounds the TCP connect alone (default: the IO timeout).
// The caller's context can always cut it shorter.
func WithDialTimeout(d time.Duration) DialOption { return func(c *Client) { c.dialTimeout = d } }

// WithRetryPolicy turns on automatic reconnect-and-retry under the given
// policy (a zero policy means DefaultRetryPolicy). Only safely retryable
// failures are retried — see Retryable for the taxonomy; the key
// invariant is that a query is never silently re-run once row batches
// have been consumed. With a policy set, Query reads the first response
// frame eagerly so a connection that dies before delivering anything is
// retried invisibly to the caller.
func WithRetryPolicy(p RetryPolicy) DialOption {
	return func(c *Client) { pp := p.norm(); c.retry = &pp }
}

// cancelGrace is how long the client waits, after sending a cancel frame
// for a cancelled context, for the server's terminal frame before forcing
// the blocked read to fail. It bounds how long a cancelled query can stay
// stuck on a blackholed connection.
const cancelGrace = 2 * time.Second

// Client is one connection to an fdqd server (and, when a RetryPolicy is
// set, the ability to re-establish it). It serves one query at a time
// (the protocol is strictly request/response with a streamed response); a
// Client is safe for use by one goroutine at a time, like the Rows it
// produces.
type Client struct {
	addr        string
	tenant      string
	ioTimeout   time.Duration
	dialTimeout time.Duration
	retry       *RetryPolicy

	conn  net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	frame []byte // storage of the last frame read, reused by the next: a payload is valid until then

	writeMu sync.Mutex // serializes frame writes: Rows cancel vs. next Query
	busy    bool       // a Rows is in flight and owns the read side
	broken  bool       // protocol desync — the connection is unusable
}

// Dial connects to an fdqd server and performs the hello exchange.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, opts...)
}

// DialContext is Dial honoring a context through both the TCP connect and
// the hello exchange: a blackholed address fails at ctx's deadline, not
// the socket's. With a RetryPolicy set, retryable connect failures
// (including typed over-capacity refusals, whose retry-after hint floors
// the backoff) are retried under the policy.
func DialContext(ctx context.Context, addr string, opts ...DialOption) (*Client, error) {
	c := &Client{addr: addr, ioTimeout: 30 * time.Second}
	for _, o := range opts {
		o(c)
	}
	if c.dialTimeout <= 0 {
		c.dialTimeout = c.ioTimeout
	}
	if c.retry == nil {
		if err := c.connect(ctx); err != nil {
			return nil, err
		}
		return c, nil
	}
	rs := newRetryState(*c.retry)
	for {
		err := c.connect(ctx)
		if err == nil {
			return c, nil
		}
		if e := rs.next(ctx, err); e != nil {
			return nil, e
		}
	}
}

// connect establishes the TCP connection and runs the hello exchange,
// both under ctx: cancellation smashes the socket deadline so no phase
// can outlive the caller's patience.
func (c *Client) connect(ctx context.Context) error {
	d := net.Dialer{Timeout: c.dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ce := ctx.Err(); ce != nil {
			return ce
		}
		return &TransportError{Op: "dial", Err: fmt.Errorf("fdqc: dial %s: %w", c.addr, err)}
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.bw = bufio.NewWriter(conn)
	c.broken = false
	fail := func(err error) error {
		conn.Close()
		c.conn = nil
		if ce := ctx.Err(); ce != nil {
			return ce
		}
		return err
	}
	if err := c.writeJSON(FrameHello, Hello{Version: ProtocolVersion, Tenant: c.tenant}); err != nil {
		return fail(&TransportError{Op: "hello", Err: err})
	}
	t, payload, err := c.readFrame()
	if err != nil {
		return fail(&TransportError{Op: "hello", Err: err})
	}
	switch t {
	case FrameHelloAck:
		var ack HelloAck
		if err := json.Unmarshal(payload, &ack); err != nil {
			return fail(&ProtocolError{Reason: fmt.Sprintf("malformed hello ack: %v", err)})
		}
		if ack.Version != ProtocolVersion {
			return fail(fmt.Errorf("fdqc: server speaks protocol %d, client %d", ack.Version, ProtocolVersion))
		}
		return nil
	case FrameError:
		var ef ErrorFrame
		if err := json.Unmarshal(payload, &ef); err == nil {
			return fail(ef.Err())
		}
	}
	return fail(&ProtocolError{Reason: fmt.Sprintf("unexpected %c frame in hello exchange", t)})
}

// Close closes the connection. A Rows still in flight fails its next read.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	return c.conn.Close()
}

func (c *Client) writeJSON(t FrameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fdqc: encode %c frame: %w", t, err)
	}
	return c.writeFrame(t, payload)
}

func (c *Client) writeFrame(t FrameType, payload []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.conn == nil {
		return errors.New("fdqc: connection is closed")
	}
	if c.ioTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.ioTimeout))
	}
	if err := WriteFrame(c.bw, t, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}

func (c *Client) readFrame() (FrameType, []byte, error) {
	if c.ioTimeout > 0 {
		c.conn.SetReadDeadline(time.Now().Add(c.ioTimeout))
	}
	return readFrame(c.br, &c.frame)
}

// ensureConn reconnects when the connection is absent or broken; a
// healthy connection is reused.
func (c *Client) ensureConn(ctx context.Context) error {
	if c.conn != nil && !c.broken {
		return nil
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	return c.connect(ctx)
}

// Query ships the spec and returns a Rows streaming the result. The
// context governs the query: cancelling it sends a cancel frame so the
// server-side executor stops promptly, and the iterator then surfaces
// ctx's error (mirroring fdq.Rows). Only one query may be in flight per
// connection; Close (or drain to exhaustion) the Rows before the next.
//
// With a RetryPolicy set, failures before the first response frame —
// reconnects included — are retried under the policy; anything after it
// surfaces through the Rows, typed.
func (c *Client) Query(ctx context.Context, spec *QuerySpec) (*Rows, error) {
	if c.busy {
		return nil, errors.New("fdqc: a query is already in flight on this connection")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.retry == nil {
		if c.broken {
			return nil, errors.New("fdqc: connection is broken by an earlier protocol error")
		}
		return c.query1(ctx, spec)
	}
	rs := newRetryState(*c.retry)
	for {
		r, err := c.query1(ctx, spec)
		if err == nil {
			return r, nil
		}
		if e := rs.next(ctx, err); e != nil {
			return nil, e
		}
	}
}

// query1 is one attempt: connect if needed, send the spec, and (when
// retrying is on) prime the stream by reading its first response frame.
func (c *Client) query1(ctx context.Context, spec *QuerySpec) (*Rows, error) {
	if err := c.ensureConn(ctx); err != nil {
		return nil, err
	}
	if err := c.writeJSON(FrameQuery, spec); err != nil {
		c.conn.Close()
		c.conn = nil
		if ce := ctx.Err(); ce != nil {
			return nil, ce
		}
		return nil, &TransportError{Op: "send", Err: err}
	}
	r := &Rows{
		c:       c,
		conn:    c.conn,
		cols:    append([]string(nil), spec.Vars...),
		parent:  ctx,
		unwatch: func() {},
	}
	if c.retry != nil {
		stop := context.AfterFunc(ctx, func() { r.conn.SetDeadline(time.Unix(1, 0)) })
		t, payload, err := c.readFrame()
		stop()
		if err != nil {
			c.conn.Close()
			c.conn = nil
			if ce := ctx.Err(); ce != nil {
				return nil, ce
			}
			var pe *ProtocolError
			if errors.As(err, &pe) && pe.Err == nil {
				return nil, err // semantic desync, not a dead network: never retried
			}
			return nil, &TransportError{Op: "recv", Err: err}
		}
		if t == FrameError {
			var ef ErrorFrame
			if json.Unmarshal(payload, &ef) == nil {
				if ok, _ := Retryable(ef.Err()); ok {
					// Terminal frame consumed; the connection stays usable
					// for the retry.
					return nil, ef.Err()
				}
			}
		}
		r.primedT, r.primedP, r.hasPrimed = t, payload, true
	}
	c.busy = true
	if ctx.Done() != nil {
		stop := make(chan struct{})
		var once sync.Once
		r.unwatch = func() { once.Do(func() { close(stop) }) }
		go func() {
			select {
			case <-ctx.Done():
				r.sendCancel()
				// Give the server cancelGrace to deliver its terminal
				// frame; then force the blocked read to fail so a
				// blackholed connection cannot pin the iterator.
				t := time.NewTimer(cancelGrace)
				defer t.Stop()
				select {
				case <-t.C:
					r.mu.Lock()
					if !r.finished {
						r.conn.SetReadDeadline(time.Unix(1, 0))
					}
					r.mu.Unlock()
				case <-stop:
				}
			case <-stop:
			}
		}()
	}
	return r, nil
}

// Rows iterates a streamed query result with the fdq.Rows contract:
// Next/Scan/Err/Close, deterministic row order, Close propagating to a
// server-side cancellation. Stats returns the server's RunStats after
// exhaustion. A Rows is used by one goroutine at a time. Next decodes every
// batch into the stream's one buffer, so a row held across Next is not
// required to survive; Collect decodes into the rows it returns.
//
//lint:ignore fdqvet/structalign fields are grouped by lifecycle phase (primed frame, stream state, guarded close); one instance per query, so 24B is not worth breaking the grouping
type Rows struct {
	c       *Client
	conn    net.Conn // the connection this query runs on (stable across client reconnects)
	cols    []string
	parent  context.Context
	unwatch func() // stops the context watcher goroutine

	// The primed frame: with retrying on, Query reads the first response
	// frame itself; Next consumes it before touching the socket.
	primedT   FrameType
	primedP   []byte
	hasPrimed bool

	vals       []fdq.Value // the decode buffer every batch of this stream reuses
	pending    []fdq.Value // decoded rows not yet consumed, row-major: the tail of vals
	cur        []fdq.Value
	batches    int // row batches consumed — the mid-stream line for retry safety
	done       bool
	closed     bool // Close was called before the terminal frame arrived
	closeErr   error
	cancelOnce sync.Once
	err        error
	stats      *fdq.RunStats
	count      int

	mu       sync.Mutex // guards finished against the cancel watcher
	finished bool       // guarded by mu
}

// sendCancel ships one cancel frame, once, ignoring write errors (the
// read side surfaces any real connection failure).
func (r *Rows) sendCancel() {
	r.cancelOnce.Do(func() { _ = r.c.writeFrame(FrameCancel, nil) })
}

// finish records the terminal state and releases the connection.
func (r *Rows) finish(err error, stats *StatsFrame) {
	r.mu.Lock()
	r.finished = true
	r.mu.Unlock()
	r.done = true
	r.cur = nil
	r.unwatch()
	r.c.busy = false
	r.err = err
	if stats != nil {
		r.stats = stats.Stats
		if r.stats != nil {
			r.stats.LogBound = FloatOf(stats.LogBound)
		}
		r.count = stats.Count
	}
}

// fail marks both the iterator and the connection dead: after a transport
// or protocol error mid-stream, frame boundaries are unknowable.
func (r *Rows) fail(err error) {
	r.c.broken = true
	r.finish(err, nil)
}

// nextBatch reads the next frame: a row batch's payload, valid until the
// next read, or false once a terminal frame or a failure finished r.
func (r *Rows) nextBatch() ([]byte, bool) {
	t, payload := r.primedT, r.primedP
	var err error
	if r.hasPrimed {
		r.hasPrimed, r.primedP = false, nil
	} else {
		t, payload, err = r.c.readFrame()
	}
	if err != nil {
		var pe *ProtocolError
		if ce := r.parent.Err(); ce != nil {
			// The caller cancelled; the read failing (deadline smash,
			// severed conn) is the mechanism, not the story.
			err = ce
		} else if !errors.As(err, &pe) || pe.Err != nil {
			err = &TransportError{Op: "recv", MidStream: r.batches > 0, Err: err}
		} // else a peer desync: typed, never retried
		r.fail(err)
		return nil, false
	}
	switch t {
	case FrameBatch:
		r.batches++
		return payload, true
	case FrameStats:
		var sf StatsFrame
		if err := json.Unmarshal(payload, &sf); err != nil {
			r.fail(&ProtocolError{Reason: fmt.Sprintf("malformed stats frame: %v", err)})
		} else {
			r.finish(nil, &sf)
		}
	case FrameError:
		var ef ErrorFrame
		if err := json.Unmarshal(payload, &ef); err != nil {
			r.fail(&ProtocolError{Reason: fmt.Sprintf("malformed error frame: %v", err)})
		} else {
			r.finish(ef.Err(), nil)
		}
	default:
		r.fail(&ProtocolError{Reason: fmt.Sprintf("unexpected %c frame mid-stream", t)})
	}
	return nil, false
}

// Next advances to the next row, reporting false on exhaustion, error, or
// close (check Err to distinguish).
func (r *Rows) Next() bool {
	if r.done {
		return false
	}
	width := len(r.cols)
	for len(r.pending) == 0 {
		payload, ok := r.nextBatch()
		if !ok {
			return false
		}
		var err error
		if r.vals, err = decodeBatch(r.vals[:0], payload, width); err != nil {
			r.fail(err)
			return false
		}
		r.pending = r.vals
	}
	r.cur = r.pending[:width:width]
	r.pending = r.pending[width:]
	return true
}

// Columns returns the column names, in Vars order.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Row returns the current row (valid until the next Next call).
func (r *Rows) Row() []fdq.Value { return r.cur }

// Scan copies the current row into dest, one pointer per column.
func (r *Rows) Scan(dest ...*fdq.Value) error {
	if r.cur == nil {
		return fmt.Errorf("fdqc: Scan called without a current row")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("fdqc: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		*d = r.cur[i]
	}
	return nil
}

// Err returns the query error, meaningful after Next returned false or
// after Close. Like fdq.Rows, a consumer stopping early is not an error:
// the remote cancellation produced by Close's own cancel frame is
// suppressed unless the caller's context was already cancelled when Close
// ran (snapshotted at close time — a parent cancelled after a clean Close
// cannot retroactively make it an error).
func (r *Rows) Err() error {
	if !r.done {
		return nil
	}
	if r.closed && errors.Is(r.err, context.Canceled) && r.closeErr == nil {
		return nil
	}
	return r.err
}

// Close stops the remote executor promptly (a cancel frame), drains the
// stream to its terminal frame so the connection is reusable, and returns
// the query error, if any (its own cancellation is not one). Idempotent
// and safe after exhaustion.
func (r *Rows) Close() error {
	if r.done {
		return r.Err()
	}
	r.closed = true
	r.closeErr = nil
	if r.parent != nil {
		r.closeErr = r.parent.Err() // snapshot: Close-time truth
	}
	r.sendCancel()
	for !r.done {
		if !r.Next() {
			break
		}
	}
	r.pending = nil
	return r.Err()
}

// Stats returns the server-reported execution statistics, available once
// the iterator is exhausted or closed without transport failure.
func (r *Rows) Stats() *fdq.RunStats {
	if !r.done {
		return nil
	}
	return r.stats
}

// Count runs a COUNT-only query: no rows cross the wire, only the
// cardinality (and stats).
func (c *Client) Count(ctx context.Context, spec *QuerySpec) (int, error) {
	s := *spec
	s.Count = true
	r, err := c.Query(ctx, &s)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for r.Next() {
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	return r.count, nil
}

// collectChunkMax caps the doubling of the chunks Collect decodes into
// (values, i.e. 32 KiB): large enough that a big answer costs few
// allocations, small enough that the unused tail of the last one does not show.
const collectChunkMax = 4096

// Collect runs the query and gathers the whole result in memory.
func (c *Client) Collect(ctx context.Context, spec *QuerySpec) ([][]fdq.Value, *fdq.RunStats, error) {
	r, err := c.Query(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	defer r.Close()
	// Each batch decodes straight into the storage its rows are returned in:
	// chunks doubling up to collectChunkMax values, or one whole batch if more.
	width := len(r.cols)
	var chunks [][]fdq.Value
	var chunk []fdq.Value
	n := 0 // values
	for payload, ok := r.nextBatch(); ok; payload, ok = r.nextBatch() {
		vals, _, _ := batchValues(payload, width) // a malformed header fails decodeBatch
		if len(chunk)+vals > cap(chunk) {
			chunks = append(chunks, chunk)
			chunk = make([]fdq.Value, 0, max(min(2*cap(chunk), collectChunkMax), vals))
		}
		var err error
		if chunk, err = decodeBatch(chunk, payload, width); err != nil {
			r.fail(err)
			break
		}
		n += vals
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	// Each row is a full-slice view (cap == len), so appending to a
	// returned row reallocates rather than overwriting its neighbour.
	out := make([][]fdq.Value, 0, n/width)
	for _, chunk := range append(chunks, chunk) {
		for ; len(chunk) > 0; chunk = chunk[width:] {
			out = append(out, chunk[:width:width])
		}
	}
	return out, r.Stats(), nil
}
