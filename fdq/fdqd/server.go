// Package fdqd is the fdq network server: it owns a catalog, a session per
// tenant (each behind its own bound-governed admission Governor), and
// streams query results to concurrent fdqc clients over the length-prefixed
// frame protocol defined in fdq/fdqc. Admission refusals cross the wire as
// typed error frames, so a client-side errors.Is(err, fdq.ErrBoundExceeded)
// behaves exactly as it would in process.
//
// Lifecycle: New validates the config, Serve accepts until Shutdown, and
// Shutdown drains gracefully — the listener closes, idle connections are
// dropped, in-flight queries finish streaming until the drain context
// expires, then everything is force-cancelled.
package fdqd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
)

// batchRows caps the row count of a batch frame; a stream's frames grow to
// it from a single row, ×4 each.
const batchRows = 4096

// cancelCheckRows is how often the frame loop checks the query context
// between frame boundaries: a cancel lands within that many rows.
const cancelCheckRows = 256

// frameBufs is one query's batch and payload buffers, pooled rather than
// kept per connection so that an idle connection pins none.
type frameBufs struct {
	batch   []fdq.Value
	payload []byte
}

var frameBufPool = sync.Pool{New: func() any { return new(frameBufs) }}

// Config describes a server. Catalog is required; everything else has
// serviceable defaults.
type Config struct {
	// Catalog is the relation store queries run against.
	Catalog *fdq.Catalog

	// DefaultGovernor configures the governor of the default tenant (the
	// empty tenant name, and any tenant not listed in Tenants).
	DefaultGovernor []fdq.GovernorOption

	// Tenants configures one governor per named tenant. Clients pick their
	// tenant in the hello frame; each tenant's queries share that tenant's
	// admission semaphore, budgets, and policy.
	Tenants map[string][]fdq.GovernorOption

	// IOTimeout bounds each frame write and each mid-handshake read
	// (default 30s). IdleTimeout bounds how long a connection may sit
	// between queries (default 5m).
	IOTimeout   time.Duration
	IdleTimeout time.Duration

	// FrameTimeout bounds the arrival of a frame's remaining bytes once
	// its first byte has been read (default: IOTimeout). This is the
	// slow-loris defense: a peer trickling a frame byte by byte is
	// evicted on a progress deadline, while a healthy connection sitting
	// quietly between frames is not touched.
	FrameTimeout time.Duration

	// MaxConns caps open connections server-wide (0 = unlimited). A
	// connection past the cap is refused with a typed over-capacity
	// error frame carrying RetryAfter as a backoff hint, then closed —
	// load is shed at the door, before a goroutine per socket piles up.
	MaxConns int

	// TenantQuotas caps open connections per tenant name ("" = the
	// default tenant; other keys must exist in Tenants). A connection
	// over its tenant's quota is refused like an over-capacity one, so
	// one tenant's reconnect storm cannot crowd out the rest.
	TenantQuotas map[string]int

	// RetryAfter is the backoff hint carried in over-capacity refusals
	// (default 1s). Clients with a RetryPolicy treat it as a floor under
	// their jittered backoff.
	RetryAfter time.Duration
}

// tenantState is one tenant's session; the governor (and its admission
// queue) lives inside it.
type tenantState struct {
	name  string
	sess  *fdq.Session
	quota int          // max open connections; 0 = unlimited
	open  atomic.Int64 // currently open connections for this tenant
}

// Server is a running fdqd instance. Create with New.
type Server struct {
	cfg     Config
	metrics Metrics

	defaultTenant *tenantState
	tenants       map[string]*tenantState

	baseCtx   context.Context // queries derive from this; force-shutdown cancels it
	baseStop  context.CancelFunc
	draining  atomic.Bool
	listeners struct {
		sync.Mutex
		ls map[net.Listener]struct{}
	}
	conns struct {
		sync.Mutex
		m map[*serverConn]struct{}
	}
	wg sync.WaitGroup
}

// New builds a server from the config.
func New(cfg Config) (*Server, error) {
	if cfg.Catalog == nil {
		return nil, errors.New("fdqd: config needs a catalog")
	}
	if cfg.IOTimeout <= 0 {
		cfg.IOTimeout = 30 * time.Second
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	if cfg.FrameTimeout <= 0 {
		cfg.FrameTimeout = cfg.IOTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	s := &Server{cfg: cfg, tenants: map[string]*tenantState{}}
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	s.listeners.ls = map[net.Listener]struct{}{}
	s.conns.m = map[*serverConn]struct{}{}
	s.defaultTenant = s.newTenant("", cfg.DefaultGovernor)
	for name, opts := range cfg.Tenants {
		if name == "" {
			return nil, errors.New("fdqd: the default tenant is configured via DefaultGovernor, not Tenants[\"\"]")
		}
		s.tenants[name] = s.newTenant(name, opts)
	}
	for name, quota := range cfg.TenantQuotas {
		if quota < 0 {
			return nil, fmt.Errorf("fdqd: negative connection quota for tenant %q", name)
		}
		t := s.defaultTenant
		if name != "" {
			var ok bool
			if t, ok = s.tenants[name]; !ok {
				return nil, fmt.Errorf("fdqd: connection quota for unconfigured tenant %q", name)
			}
		}
		t.quota = quota
	}
	return s, nil
}

// newTenant builds the tenant's session with a governor whose admission
// observer feeds the server metrics.
func (s *Server) newTenant(name string, govOpts []fdq.GovernorOption) *tenantState {
	opts := append(append([]fdq.GovernorOption(nil), govOpts...),
		fdq.WithAdmissionObserver(s.metrics.observeAdmission))
	gov := fdq.NewGovernor(opts...)
	return &tenantState{name: name, sess: fdq.NewSession(s.cfg.Catalog, fdq.WithGovernor(gov))}
}

// tenant resolves a hello's tenant name; unknown names fall back to the
// default tenant (admission still applies — the default governor's).
func (s *Server) tenant(name string) *tenantState {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	return s.defaultTenant
}

// Metrics exposes the server's counters (live; also served by HTTPHandler).
func (s *Server) Metrics() *Metrics { return &s.metrics }

// TenantGovernor returns the governor serving the named tenant (the
// default tenant's when the name is empty or unknown) — the handle churn
// and leak tests use to assert admission slots return to baseline.
func (s *Server) TenantGovernor(name string) *fdq.Governor {
	return s.tenant(name).sess.Governor()
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until the listener fails or Shutdown
// closes it; it returns nil on a drain-initiated stop.
func (s *Server) Serve(ln net.Listener) error {
	s.listeners.Lock()
	if s.draining.Load() {
		s.listeners.Unlock()
		ln.Close()
		return errors.New("fdqd: server is shut down")
	}
	s.listeners.ls[ln] = struct{}{}
	s.listeners.Unlock()
	defer func() {
		s.listeners.Lock()
		delete(s.listeners.ls, ln)
		s.listeners.Unlock()
	}()
	var acceptDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				// EMFILE and friends: back off instead of spinning hot on
				// an accept that will keep failing for a while.
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.metrics.AcceptThrottled.Add(1)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		if s.cfg.MaxConns > 0 && s.metrics.OpenConns.Load() >= int64(s.cfg.MaxConns) {
			s.metrics.OverCapacity.Add(1)
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.refuse(conn, fmt.Sprintf("server at its %d-connection cap", s.cfg.MaxConns))
			}()
			// Pace the loop while shedding: a connect flood should not
			// drive the accept loop at full speed just to say no.
			s.metrics.AcceptThrottled.Add(1)
			time.Sleep(time.Millisecond)
			continue
		}
		sc := &serverConn{s: s, conn: conn, bw: bufio.NewWriter(conn)}
		s.conns.Lock()
		s.conns.m[sc] = struct{}{}
		s.conns.Unlock()
		s.metrics.OpenConns.Add(1)
		s.metrics.ConnsTotal.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.conns.Lock()
				delete(s.conns.m, sc)
				s.conns.Unlock()
				s.metrics.OpenConns.Add(-1)
			}()
			sc.serve()
		}()
	}
}

// refuse writes a typed over-capacity refusal and closes the connection.
// The refused client sees it while reading its hello ack; RetryAfter
// becomes the floor under a retrying client's backoff.
func (s *Server) refuse(conn net.Conn, msg string) {
	conn.SetWriteDeadline(time.Now().Add(s.cfg.IOTimeout))
	if payload, err := json.Marshal(fdqc.ErrorFrame{
		Code:         fdqc.CodeOverCapacity,
		Msg:          msg,
		RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
	}); err == nil {
		fdqc.WriteFrame(conn, fdqc.FrameError, payload)
	}
	conn.Close()
}

// Shutdown drains the server: listeners close (Serve returns), idle
// connections drop immediately, and in-flight queries keep streaming until
// they finish or ctx expires — at which point every remaining query is
// cancelled and every connection closed. Shutdown returns nil on a clean
// drain and ctx.Err() if it had to force.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.listeners.Lock()
	for ln := range s.listeners.ls {
		ln.Close()
	}
	s.listeners.Unlock()
	// Drop idle connections; busy ones finish their in-flight query (the
	// handler re-checks draining after each query and closes).
	s.conns.Lock()
	for sc := range s.conns.m {
		if !sc.busy.Load() {
			sc.conn.Close()
		}
	}
	s.conns.Unlock()

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.baseStop()
		return nil
	case <-ctx.Done():
	}
	// Force: cancel every in-flight query and close every connection.
	s.baseStop()
	s.conns.Lock()
	for sc := range s.conns.m {
		sc.conn.Close()
	}
	s.conns.Unlock()
	<-done
	return ctx.Err()
}

// serverConn is one client connection's state.
type serverConn struct {
	s    *Server
	conn net.Conn
	bw   *bufio.Writer // flushed per frame: header and payload leave as one write
	busy atomic.Bool   // a query is streaming (drain waits for it)
}

type inFrame struct {
	t       fdqc.FrameType
	payload []byte
	err     error
}

// readFrameProgress reads one frame with reader-owned deadlines: no
// deadline while waiting for the frame to start, then a progress deadline
// of FrameTimeout for its remaining bytes once the first byte arrives. A
// slow loris trickling a frame byte by byte trips the deadline; a healthy
// connection sitting quietly between frames never does.
func (sc *serverConn) readFrameProgress() (fdqc.FrameType, []byte, error) {
	sc.conn.SetReadDeadline(time.Time{})
	var first [1]byte
	if _, err := io.ReadFull(sc.conn, first[:]); err != nil {
		return 0, nil, err
	}
	sc.conn.SetReadDeadline(time.Now().Add(sc.s.cfg.FrameTimeout))
	t, payload, err := fdqc.ReadFrame(io.MultiReader(bytes.NewReader(first[:]), sc.conn))
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			sc.s.metrics.FrameTimeouts.Add(1)
		}
	}
	return t, payload, err
}

func (sc *serverConn) writeFrame(t fdqc.FrameType, payload []byte) error {
	sc.conn.SetWriteDeadline(time.Now().Add(sc.s.cfg.IOTimeout))
	if err := fdqc.WriteFrame(sc.bw, t, payload); err != nil {
		return err
	}
	return sc.bw.Flush()
}

func (sc *serverConn) writeJSON(t fdqc.FrameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return sc.writeFrame(t, payload)
}

func (sc *serverConn) writeError(err error) error {
	return sc.writeJSON(fdqc.FrameError, fdqc.EncodeError(err))
}

// serve runs the connection: hello exchange, then a query loop. A
// dedicated goroutine owns every read (so a cancel frame — or a client
// disconnect — is seen even while the handler is busy streaming rows);
// the handler owns every write.
func (sc *serverConn) serve() {
	s := sc.s
	// Hello exchange under the IO timeout.
	sc.conn.SetReadDeadline(time.Now().Add(s.cfg.IOTimeout))
	t, payload, err := fdqc.ReadFrame(sc.conn)
	if err != nil {
		return
	}
	if t != fdqc.FrameHello {
		sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeBadQuery,
			Msg: fmt.Sprintf("expected hello, got %c frame", t)})
		return
	}
	var hello fdqc.Hello
	if err := json.Unmarshal(payload, &hello); err != nil {
		sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeBadQuery, Msg: "malformed hello"})
		return
	}
	if hello.Version != fdqc.ProtocolVersion {
		sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeUnavailable,
			Msg: fmt.Sprintf("protocol %d unsupported (server speaks %d)", hello.Version, fdqc.ProtocolVersion)})
		return
	}
	if s.draining.Load() {
		sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeUnavailable, Msg: "server is draining"})
		return
	}
	tenant := s.tenant(hello.Tenant)
	tenant.open.Add(1)
	defer tenant.open.Add(-1)
	if tenant.quota > 0 && tenant.open.Load() > int64(tenant.quota) {
		s.metrics.QuotaRefused.Add(1)
		sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{
			Code:         fdqc.CodeOverCapacity,
			Msg:          fmt.Sprintf("tenant %q at its %d-connection quota", tenant.name, tenant.quota),
			RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
		})
		return
	}
	if err := sc.writeJSON(fdqc.FrameHelloAck, fdqc.HelloAck{Version: fdqc.ProtocolVersion, Server: "fdqd"}); err != nil {
		return
	}

	// Read loop: all subsequent reads flow through this channel, and the
	// reader goroutine owns the read deadlines — no deadline while a
	// frame has yet to start (idleness is the handler's call, below),
	// then FrameTimeout for the rest of the frame once its first byte
	// arrives. The handler may return without draining the channel, so
	// every send selects against readStop — a bare send would strand the
	// reader (and the handler's readerDone wait) forever.
	frames := make(chan inFrame)
	readStop := make(chan struct{})
	readerDone := make(chan struct{})
	defer func() {
		close(readStop)
		sc.conn.Close() // unblock a reader parked in ReadFrame
		<-readerDone
	}()
	go func() {
		defer close(readerDone)
		defer close(frames)
		for {
			t, payload, err := sc.readFrameProgress()
			select {
			case frames <- inFrame{t, payload, err}:
			case <-readStop:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	for {
		// Idle: wait for the next query under the idle timer. The reader
		// holds no deadline of its own between frames, so eviction is
		// decided here, where "between queries" is knowable.
		idle := time.NewTimer(s.cfg.IdleTimeout)
		var f inFrame
		var ok bool
		select {
		case f, ok = <-frames:
			idle.Stop()
		case <-idle.C:
			s.metrics.IdleEvicted.Add(1)
			return
		}
		if !ok || f.err != nil {
			return
		}
		switch f.t {
		case fdqc.FrameQuery:
		case fdqc.FrameCancel:
			continue // stray cancel racing a finished query: benign
		default:
			sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeBadQuery,
				Msg: fmt.Sprintf("unexpected %c frame between queries", f.t)})
			return
		}
		if s.draining.Load() {
			sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeUnavailable, Msg: "server is draining"})
			return
		}
		var spec fdqc.QuerySpec
		if err := json.Unmarshal(f.payload, &spec); err != nil {
			sc.writeJSON(fdqc.FrameError, fdqc.ErrorFrame{Code: fdqc.CodeBadQuery, Msg: "malformed query spec"})
			return
		}
		sc.busy.Store(true)
		ok = sc.runQuery(tenant, &spec, frames)
		sc.busy.Store(false)
		if !ok {
			return
		}
		if s.draining.Load() {
			return
		}
	}
}

// runQuery executes one query and streams its result; it reports whether
// the connection remains usable for another query.
func (sc *serverConn) runQuery(tenant *tenantState, spec *fdqc.QuerySpec, frames chan inFrame) bool {
	s := sc.s
	start := time.Now()
	qctx, qcancel := context.WithCancel(s.baseCtx)
	defer qcancel()

	// Watch the read side while streaming: a cancel frame, a protocol
	// violation, or a disconnect all cancel the executor promptly.
	watchStop := make(chan struct{})
	watchExit := make(chan struct{})
	connBroken := false
	go func() {
		defer close(watchExit)
		select {
		case f, ok := <-frames:
			if ok && f.err == nil && f.t == fdqc.FrameCancel {
				qcancel()
				return
			}
			connBroken = true // disconnect or protocol violation
			qcancel()
		case <-watchStop:
		}
	}()
	finishWatch := func() {
		close(watchStop)
		<-watchExit
	}

	rows, n, err := sc.execute(qctx, tenant, spec)
	dur := time.Since(start)
	finishWatch()
	if connBroken {
		s.metrics.observeQuery(dur, errors.Join(err, errors.New("client went away")))
		return false
	}
	s.metrics.observeQuery(dur, err)
	if err != nil {
		return sc.writeError(err) == nil
	}
	var sf fdqc.StatsFrame
	if rows != nil {
		if st := rows.Stats(); st != nil {
			lb := st.LogBound
			sf.Stats = st
			sf.LogBound = fdqc.FloatPtr(lb)
		}
	}
	sf.Count = n
	return sc.writeJSON(fdqc.FrameStats, sf) == nil
}

// badQueryIfUntyped tags untyped query-start errors as bad-query:
// admission and execution failures are all typed (bound/rows/memory/
// panic/ctx), so an untyped error at the start of a query is a spec
// that did not resolve against this catalog (unknown relation, arity
// mismatch, malformed shape).
func badQueryIfUntyped(err error) error {
	if err == nil || fdqc.EncodeError(err).Code != fdqc.CodeInternal {
		return err
	}
	return &fdqc.RemoteError{Code: fdqc.CodeBadQuery, Msg: err.Error()}
}

// execute runs the spec on the tenant session, streaming batches as it
// goes: frames of 1, 4, 16, 64, ... up to batchRows rows, each encoded into
// one pooled buffer and counted in RowsStreamed once written. It returns the
// finished Rows (for stats), the cardinality in COUNT mode, and the terminal
// error, with write failures folded in. A cancelled query ends within
// cancelCheckRows rows, whatever the iterator still has buffered.
func (sc *serverConn) execute(ctx context.Context, tenant *tenantState, spec *fdqc.QuerySpec) (*fdq.Rows, int, error) {
	q, err := spec.Query()
	if err != nil {
		return nil, 0, &fdqc.RemoteError{Code: fdqc.CodeBadQuery, Msg: err.Error()}
	}
	if spec.Count {
		n, err := tenant.sess.Count(ctx, q)
		return nil, n, badQueryIfUntyped(err)
	}
	rows, err := tenant.sess.Query(ctx, q)
	if err != nil {
		return nil, 0, badQueryIfUntyped(err)
	}
	defer rows.Close()
	b := frameBufPool.Get().(*frameBufs)
	defer frameBufPool.Put(b)
	b.batch = b.batch[:0]
	pending, frame := 0, 1 // rows in b.batch, rows the next frame takes
	flush := func() error {
		if err := ctx.Err(); err != nil || pending == 0 {
			return err
		}
		b.payload = fdqc.AppendBatch(b.payload[:0], b.batch, len(spec.Vars))
		// A failed write: the client is gone or stalled past the deadline.
		if err := sc.writeFrame(fdqc.FrameBatch, b.payload); err != nil {
			return err
		}
		sc.s.metrics.RowsStreamed.Add(int64(pending))
		b.batch, pending = b.batch[:0], 0
		frame = min(frame*4, batchRows)
		return nil
	}
	for rows.Next() {
		b.batch = append(b.batch, rows.Row()...)
		if pending++; pending == frame {
			err = flush()
		} else if pending%cancelCheckRows == 0 {
			err = ctx.Err()
		}
		if err != nil {
			return rows, 0, err
		}
	}
	if err := rows.Err(); err != nil {
		return rows, 0, err
	}
	return rows, 0, flush()
}
