// Wire conformance: every scenario instance end to end through one fdqd
// server on a loopback listener. The network/* checks dial it directly and
// demand byte identity against the in-process session and the naive
// reference, plus typed-error equivalence (the same governed refusal must
// reconstruct identically on the client side of the wire). The chaos/*
// cells dial it through a fresh chaos proxy each, one per fault schedule,
// with the client's retry policy on: every cell must end byte-identical to
// the reference (the retry machinery absorbed the fault invisibly) or in a
// typed error the caller can act on. A mystery error, a drifted result, or
// a goroutine that outlives the server fails the record.
package oracle

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
	"repro/internal/chaosproxy"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// CheckWireInstance runs one scenario instance through the wire matrix:
// the network/* checks, then the chaos/* cells. Scenarios whose query
// cannot be expressed on the wire (unguarded FDs computed by unnamed
// functions) are recorded as skipped, not failed — the wire protocol
// deliberately carries functions by builtin name only.
func CheckWireInstance(ctx context.Context, in scenario.Instance) MatrixResult {
	return checkWire(ctx, in.Name, in.Build(), true, chaosMatrix())
}

// CheckHandshake is the wire matrix's run-level record fdqc/handshake: the
// first connection's hello ack never arrives, so the dial times out at the
// client's IO deadline and retries onto a clean connection. The fault
// lands before any query frame, so no scenario can change its outcome; it
// runs once, on a small AGM product, because the wait is a whole second.
func CheckHandshake(ctx context.Context) MatrixResult {
	return checkWire(ctx, "fdqc/handshake", scenario.AGMProduct(16, 1), false, []chaosCell{{
		name: "blackhole-hello", mustMatch: true, ioTimeout: time.Second, sched: chaosproxy.Schedule{
			Name: "blackhole-hello",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Down, Kind: chaosproxy.Blackhole, Off: 0, Conn: 0},
			}}}})
}

// wire is one instance on the wire: the loopback server's address, the
// catalog it serves, the query as a spec and as the spec's in-process twin,
// and the naive reference.
type wire struct {
	addr string
	cat  *fdq.Catalog
	spec *fdqc.QuerySpec
	qb   *fdq.Q
	want *rel.Relation
}

// checkWire serves q over loopback and runs the network/* checks (when
// direct is set) and then one chaos/<name> check per cell against it.
func checkWire(ctx context.Context, name string, q *query.Q, direct bool, cells []chaosCell) (res MatrixResult) {
	res = MatrixResult{Scenario: name, Verdict: Verdict{Pass: true}}
	defer res.finish(time.Now())

	var w wire
	var err error
	if w.want, err = reference(q); err != nil {
		res.fail("%v", err)
		return res
	}
	if w.spec, err = fdqc.FromQuery(q); err != nil {
		res.Skipped = err.Error()
		return res
	}
	if w.cat, err = wireCatalog(q); err != nil {
		res.Skipped = err.Error()
		return res
	}
	if w.qb, err = w.spec.Query(); err != nil {
		res.fail("spec does not lower: %v", err)
		return res
	}

	base := runtime.NumGoroutine()
	var stop func() error
	if w.addr, stop, err = serve(w.cat); err != nil {
		res.fail("%v", err)
		return res
	}
	add := func(name string, f func() error) { check(&res.Verdict, &res.Checks, name, f) }
	if direct {
		networkChecks(ctx, add, &w)
	}
	for _, cell := range cells {
		add("chaos/"+cell.name, func() error { return runChaosCell(ctx, &w, cell) })
	}
	if err := stop(); err != nil {
		res.fail("%v", err)
	}
	// Every client, proxy and server handler must be gone with the server.
	if !settleGoroutines(base) {
		res.fail("goroutine leak across wire matrix: %d running, baseline %d", runtime.NumGoroutine(), base)
	}
	return res
}

// wireCatalog rebuilds the instance's relations as an fdq catalog.
// Duplicate relation names are legal only when the data is identical
// (a self-join referencing one stored relation twice).
func wireCatalog(q *query.Q) (*fdq.Catalog, error) {
	cat := fdq.NewCatalog()
	seen := map[string]*rel.Relation{}
	for _, r := range q.Rels {
		if prev, ok := seen[r.Name]; ok {
			if !rel.Identical(prev, r) {
				return nil, fmt.Errorf("relation name %q reused with different data", r.Name)
			}
			continue
		}
		seen[r.Name] = r
		cols := make([]string, r.Arity())
		for i, a := range r.Attrs {
			cols[i] = q.Names[a]
		}
		rows := make([][]fdq.Value, r.Len())
		for i := 0; i < r.Len(); i++ {
			rows[i] = append([]fdq.Value(nil), r.Row(i)...)
		}
		if err := cat.Define(r.Name, cols, rows); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// wireTenants are the governed tenants the server serves, each mirrored by
// an in-process session in its network/error check. A log bound of -1 is
// under any certified bound of a nonempty output, so reject always fires.
func wireTenants() map[string][]fdq.GovernorOption {
	return map[string][]fdq.GovernorOption{
		"reject": {fdq.WithMaxLogBound(-1)},
		"rowcap": {fdq.WithMaxRows(1)},
	}
}

// serve runs an fdqd server over cat on a loopback listener until stop,
// which reports a failed shutdown or a Serve error.
func serve(cat *fdq.Catalog) (addr string, stop func() error, err error) {
	srv, err := fdqd.New(fdqd.Config{Catalog: cat, Tenants: wireTenants()})
	if err != nil {
		return "", nil, fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	return ln.Addr().String(), func() error {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var errs []error
		if err := srv.Shutdown(sctx); err != nil {
			errs = append(errs, fmt.Errorf("shutdown: %w", err))
		}
		if err := <-served; err != nil {
			errs = append(errs, fmt.Errorf("serve: %w", err))
		}
		return errors.Join(errs...)
	}, nil
}

// withClient dials addr, runs f on the connection and closes it.
func withClient(addr string, f func(*fdqc.Client) error, opts ...fdqc.DialOption) error {
	c, err := fdqc.Dial(addr, opts...)
	if err != nil {
		return err
	}
	defer c.Close()
	return f(c)
}

// sameRows demands that wire rows are exactly the first n reference rows.
func sameRows(got [][]fdq.Value, want *rel.Relation, n int) error {
	if len(got) != n {
		return fmt.Errorf("%d rows, naive reference %d", len(got), n)
	}
	for i, row := range got {
		if !slices.Equal(row, []fdq.Value(want.Row(i))) {
			return fmt.Errorf("row %d: %v, naive reference %v", i, row, want.Row(i))
		}
	}
	return nil
}

// collectAll collects spec over c and demands the whole reference, stats
// frame included.
func collectAll(ctx context.Context, c *fdqc.Client, spec *fdqc.QuerySpec, want *rel.Relation) error {
	got, stats, err := c.Collect(ctx, spec)
	if err != nil {
		return err
	}
	if err := sameRows(got, want, want.Len()); err != nil {
		return err
	}
	if stats == nil || stats.Rows != want.Len() {
		return fmt.Errorf("stats frame lost or wrong: %+v", stats)
	}
	return nil
}

// networkChecks adds the direct checks: collected rows, COUNT and LIMIT-k
// byte-identical to the reference (and collected rows to the in-process
// session too), and governed refusals equivalent across the wire.
func networkChecks(ctx context.Context, add func(string, func() error), w *wire) {
	add("network/collect", func() error {
		inproc, err := fdq.NewSession(w.cat).Collect(ctx, w.qb)
		if err != nil {
			return fmt.Errorf("in-process: %w", err)
		}
		if err := sameRows(inproc, w.want, w.want.Len()); err != nil {
			return fmt.Errorf("in-process: %w", err)
		}
		return withClient(w.addr, func(c *fdqc.Client) error { return collectAll(ctx, c, w.spec, w.want) })
	})

	add("network/count", func() error {
		return withClient(w.addr, func(c *fdqc.Client) error {
			n, err := c.Count(ctx, w.spec)
			if err != nil {
				return err
			}
			if n != w.want.Len() {
				return fmt.Errorf("count %d, reference %d", n, w.want.Len())
			}
			return nil
		})
	})

	k := (w.want.Len() + 1) / 2 // ≥ 1: reference refuses an empty answer
	add(fmt.Sprintf("network/limit%d", k), func() error {
		s := *w.spec
		s.Limit = k
		return withClient(w.addr, func(c *fdqc.Client) error {
			got, _, err := c.Collect(ctx, &s)
			if err != nil {
				return err
			}
			return sameRows(got, w.want, k)
		})
	})

	// Typed-error equivalence: the same governed refusal, produced once in
	// process and once across the wire, must match the same sentinels and
	// carry the same payload numbers.
	refusal := func(tenant string, sentinel error) func() error {
		return func() error {
			gov := fdq.NewGovernor(wireTenants()[tenant]...)
			_, inErr := fdq.NewSession(w.cat, fdq.WithGovernor(gov)).Collect(ctx, w.qb)
			return withClient(w.addr, func(c *fdqc.Client) error {
				_, _, netErr := c.Collect(ctx, w.spec)
				return equivalentErrors(inErr, netErr, sentinel)
			}, fdqc.WithTenant(tenant))
		}
	}
	add("network/error/bound", refusal("reject", fdq.ErrBoundExceeded))
	if w.want.Len() > 1 {
		add("network/error/rows", refusal("rowcap", fdq.ErrRowsExceeded))
	}
}

// equivalentErrors demands both errors match the sentinel and carry the
// same typed payload.
func equivalentErrors(inErr, netErr, sentinel error) error {
	if inErr == nil || netErr == nil {
		//lint:ignore fdqvet/errtaxonomy one side is nil by construction; this is a terminal oracle diagnostic, nothing classifies it downstream
		return fmt.Errorf("in-process err %v, network err %v (both must refuse)", inErr, netErr)
	}
	if !errors.Is(inErr, sentinel) {
		return fmt.Errorf("in-process error %w does not match %v", inErr, sentinel)
	}
	if !errors.Is(netErr, sentinel) {
		return fmt.Errorf("network error %w does not match %v", netErr, sentinel)
	}
	var inBE, netBE *fdq.BoundExceededError
	if errors.As(inErr, &inBE) != errors.As(netErr, &netBE) {
		return fmt.Errorf("typed shape mismatch: %T vs %T", inErr, netErr)
	}
	if inBE != nil && (inBE.LogBound != netBE.LogBound || inBE.Budget != netBE.Budget) {
		//lint:ignore fdqvet/errtaxonomy oracle diagnostic dumps payload fields of both sides; there is no single cause to wrap
		return fmt.Errorf("bound payload drifted: in-process %+v, network %+v", inBE, netBE)
	}
	var inRE, netRE *fdq.RowsExceededError
	if errors.As(inErr, &inRE) != errors.As(netErr, &netRE) {
		return fmt.Errorf("typed shape mismatch: %T vs %T", inErr, netErr)
	}
	if inRE != nil && inRE.Limit != netRE.Limit {
		//lint:ignore fdqvet/errtaxonomy oracle diagnostic dumps payload fields of both sides; there is no single cause to wrap
		return fmt.Errorf("rows payload drifted: in-process %+v, network %+v", inRE, netRE)
	}
	return nil
}

// chaosCell is one fault schedule in the matrix plus the verdict it is
// held to. mustMatch cells describe faults the client's retry policy is
// contractually able to absorb (pre-stream failures on one connection);
// their result must be byte-identical to the reference. The remaining
// cells may instead surface a typed error — but never an untyped one.
type chaosCell struct {
	name      string
	sched     chaosproxy.Schedule
	mustMatch bool
	ioTimeout time.Duration // 0 = the matrix default
}

// downAckSize is the encoded size of the server's hello-ack frame: the
// byte offset at which the downstream query response begins.
func downAckSize(server string) int64 {
	p, _ := json.Marshal(fdqc.HelloAck{Version: fdqc.ProtocolVersion, Server: server})
	return int64(5 + len(p))
}

// upHelloSize is the encoded size of the client's hello frame: the byte
// offset at which the upstream query frame begins.
func upHelloSize(tenant string) int64 {
	p, _ := json.Marshal(fdqc.Hello{Version: fdqc.ProtocolVersion, Tenant: tenant})
	return int64(5 + len(p))
}

// chaosMatrix is the fault-schedule battery every scenario runs behind
// (the hello blackhole is CheckHandshake's). Terminal offsets are computed
// from the wire protocol's own encoding so each fault lands in the phase
// it names, regardless of payload sizes.
func chaosMatrix() []chaosCell {
	ack := downAckSize("fdqd")
	hello := upHelloSize("")
	return []chaosCell{
		// The control cell: a scenario that cannot pass a clean proxy has a
		// harness bug, not a resilience bug.
		{name: "clean", sched: chaosproxy.Clean(), mustMatch: true},

		{name: "latency", mustMatch: true, sched: chaosproxy.Schedule{
			Name: "latency", Seed: 1, Jitter: 500 * time.Microsecond,
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Up, Kind: chaosproxy.Latency, Conn: -1, Delay: time.Millisecond},
				{Dir: chaosproxy.Down, Kind: chaosproxy.Latency, Conn: -1, Delay: time.Millisecond},
			}}},

		// Pathological segmentation: every frame arrives fragmented, in both
		// directions. Decoding must reassemble without caring.
		{name: "chunk", mustMatch: true, sched: chaosproxy.Schedule{
			Name: "chunk",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Up, Kind: chaosproxy.Chunk, Conn: -1, N: 5},
				{Dir: chaosproxy.Down, Kind: chaosproxy.Chunk, Conn: -1, N: 3},
			}}},

		{name: "throttle", mustMatch: true, sched: chaosproxy.Schedule{
			Name: "throttle",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Down, Kind: chaosproxy.Throttle, Conn: -1, BPS: 512 << 10},
			}}},

		// The first connection dies with a TCP reset four bytes into the
		// query response; nothing has streamed, so the retry policy must
		// reconnect and re-run invisibly.
		{name: "rst-first-conn", mustMatch: true, sched: chaosproxy.Schedule{
			Name: "rst-first-conn",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Down, Kind: chaosproxy.RST, Off: ack + 4, Conn: 0},
			}}},

		// The first connection dies mid-query-frame on the way up; the
		// server never sees a complete query, so nothing ran and the retry
		// is safe by construction.
		{name: "drop-upstream", mustMatch: true, sched: chaosproxy.Schedule{
			Name: "drop-upstream",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Up, Kind: chaosproxy.Drop, Off: hello + 4, Conn: 0},
			}}},

		// Every connection drops 2KiB into the response. Small results fit
		// under the offset and must come back identical; larger ones die
		// mid-stream, where silent re-runs are forbidden — the client must
		// surrender with a typed error instead.
		{name: "drop-mid-stream", mustMatch: false, sched: chaosproxy.Schedule{
			Name: "drop-mid-stream",
			Rules: []chaosproxy.Rule{
				{Dir: chaosproxy.Down, Kind: chaosproxy.Drop, Off: 2 << 10, Conn: -1},
			}}},
	}
}

// typedNetError reports whether err is one of the typed errors the
// resilience contract permits a chaos cell to surface: transport and
// protocol failures, remote refusals, over-capacity hints, and context
// verdicts. Anything else is a mystery error and fails the cell.
func typedNetError(err error) bool {
	var te *fdqc.TransportError
	var pe *fdqc.ProtocolError
	var re *fdqc.RemoteError
	var oc *fdqc.OverCapacityError
	return errors.As(err, &te) || errors.As(err, &pe) || errors.As(err, &re) ||
		errors.As(err, &oc) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// runChaosCell runs one (scenario, schedule) cell: dial through a fresh
// proxy, collect, and hold the outcome to the cell's verdict. A drifted
// result is an untyped error, so it fails every cell.
func runChaosCell(ctx context.Context, w *wire, cell chaosCell) error {
	px, err := chaosproxy.New(w.addr, cell.sched)
	if err != nil {
		return fmt.Errorf("proxy: %w", err)
	}
	defer px.Close()

	iot := cell.ioTimeout
	if iot == 0 {
		iot = 5 * time.Second
	}
	err = withClient(px.Addr(), func(c *fdqc.Client) error { return collectAll(ctx, c, w.spec, w.want) },
		fdqc.WithIOTimeout(iot),
		fdqc.WithDialTimeout(2*time.Second),
		fdqc.WithRetryPolicy(fdqc.RetryPolicy{
			MaxAttempts: 5,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    50 * time.Millisecond,
			Budget:      10 * time.Second,
		}))
	switch {
	case err == nil:
		return nil
	case cell.mustMatch:
		return fmt.Errorf("retry must absorb %s: %w", cell.sched.Name, err)
	case !typedNetError(err):
		return fmt.Errorf("untyped failure: %w", err)
	}
	return nil
}
