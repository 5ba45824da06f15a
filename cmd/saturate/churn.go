package main

// The -churn soak: thousands of concurrent connections churning through
// chaos proxies — connecting, querying, abandoning mid-stream, and
// vanishing without goodbye — while governed cheap clients measure what
// the server's latency does under the abuse. The claim under test is the
// resilience contract at scale: after the storm, admission slots, server
// connections, goroutines, and file descriptors all return to baseline,
// and no client ever saw an untyped error.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
	"repro/internal/chaosproxy"
)

// ChurnReport is the committed BENCH_9.json document.
type ChurnReport struct {
	GoVersion string `json:"go_version"`
	GoArch    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Recorded  string `json:"recorded"`
	Mode      string `json:"mode"` // always "churn-network"

	TargetConns  int      `json:"target_conns"`
	PeakConns    int64    `json:"peak_conns"` // server-side open connections, sampled
	Workers      int      `json:"workers"`
	FaultClasses []string `json:"fault_classes"`

	Dials         int64 `json:"dials"`
	Ops           int64 `json:"ops"`
	Abandons      int64 `json:"abandons"`       // clean mid-stream Close
	HardCloses    int64 `json:"hard_closes"`    // connection severed mid-stream, no goodbye
	TypedErrors   int64 `json:"typed_errors"`   // chaos surfacing as typed errors (expected)
	UntypedErrors int64 `json:"untyped_errors"` // mystery errors (must be zero)

	Unloaded   Phase   `json:"unloaded"`
	UnderChurn Phase   `json:"under_churn"`
	P99Ratio   float64 `json:"churn_p99_ratio"`
	TargetP99  float64 `json:"target_p99_ratio_max"`

	BaseGoroutines int   `json:"base_goroutines"`
	EndGoroutines  int   `json:"end_goroutines"`
	BaseFDs        int   `json:"base_fds"`
	EndFDs         int   `json:"end_fds"`
	EndInFlight    int64 `json:"end_admission_inflight"`
	EndOpenConns   int64 `json:"end_open_conns"`

	Pass bool `json:"pass"`
}

// churnFaultClasses is the proxy battery the churning connections are
// spread across: round-robin by worker index, every class always live.
func churnFaultClasses() []chaosproxy.Schedule {
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
		// Terminal offsets sized to a churning connection's short life —
		// a couple of small queries and an abandoned 512-row stream — so
		// every class actually fires during the soak.
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

// typedChurnError reports whether err is typed: something a resilient
// caller can classify and act on. The churn soak tolerates any number of
// these (the proxies guarantee them) and zero of anything else.
func typedChurnError(err error) bool {
	var te *fdqc.TransportError
	var pe *fdqc.ProtocolError
	var re *fdqc.RemoteError
	var oc *fdqc.OverCapacityError
	return errors.As(err, &te) || errors.As(err, &pe) || errors.As(err, &re) ||
		errors.As(err, &oc) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// countFDs counts this process's open file descriptors; -1 when the
// platform does not expose them (the FD assertions are then skipped).
func countFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// runChurn is the -churn entry point.
func runChurn(targetConns, clients int, duration time.Duration, out string) {
	cat := buildCatalog()
	cheapLB := explainBound(cat, cheapQuery())
	budget := cheapLB + 1 // admits every cheap query this soak runs

	srv, err := fdqd.New(fdqd.Config{
		Catalog: cat,
		Tenants: map[string][]fdq.GovernorOption{
			"governed": {fdq.WithMaxLogBound(budget)},
		},
		MaxConns:   targetConns*2 + 64, // the soak is about churn, not the cap
		RetryAfter: 50 * time.Millisecond,
	})
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	go srv.Serve(ln)
	addr := ln.Addr().String()

	rep := ChurnReport{
		GoVersion:   runtime.Version(),
		GoArch:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Recorded:    time.Now().UTC().Format(time.RFC3339),
		Mode:        "churn-network",
		TargetConns: targetConns,
		Workers:     targetConns,
		TargetP99:   2,
	}
	for _, s := range churnFaultClasses() {
		rep.FaultClasses = append(rep.FaultClasses, s.Name)
	}

	// The measured fleet stays tiny: its job is to sample latency through
	// the storm, not to be load itself (the churn is the load).
	mclients := clients
	if mclients > 2 {
		mclients = 2
	}

	time.Sleep(100 * time.Millisecond) // let the server's startup settle
	rep.BaseGoroutines = runtime.NumGoroutine()
	rep.BaseFDs = countFDs()

	// A discarded warmup soaks up cold-start costs (plan caches, first
	// allocations) so the unloaded baseline measures steady state, not
	// startup outliers.
	warmRunner := newNetRunner(addr, "governed", mclients, 0)
	runPhase("warmup", 500*time.Millisecond, mclients, 0, warmRunner)
	warmRunner.close()

	// Unloaded baseline: governed cheap clients, direct, nothing else on
	// the box. Two runs, keeping the quieter one — the baseline estimates
	// the machine's steady state, and a stray OS hiccup in it would turn
	// the soak's ratio into a coin flip.
	unloadedRunner := newNetRunner(addr, "governed", mclients, 0)
	rep.Unloaded = runPhase("unloaded", duration, mclients, 0, unloadedRunner)
	if again := runPhase("unloaded", duration, mclients, 0, unloadedRunner); again.P99Micros < rep.Unloaded.P99Micros {
		rep.Unloaded = again
	}
	unloadedRunner.close()

	var proxies []*chaosproxy.Proxy
	for _, sched := range churnFaultClasses() {
		p, err := chaosproxy.New(addr, sched)
		if err != nil {
			fatal(err)
		}
		proxies = append(proxies, p)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var ready atomic.Int64
	start := make(chan struct{})
	fmt.Fprintf(os.Stderr, "saturate -churn: ramping %d connections across %d fault classes\n",
		targetConns, len(proxies))

	for w := 0; w < targetConns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			churnWorker(ctx, w, proxies[w%len(proxies)].Addr(), &rep, ready.Add, start)
		}(w)
	}

	// Wait for the full fleet to be connected before measuring; the ramp
	// itself is allowed up to 60s on a loaded box.
	rampDeadline := time.Now().Add(60 * time.Second)
	for ready.Load() < int64(targetConns) && time.Now().Before(rampDeadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := ready.Load(); n < int64(targetConns) {
		fatal(fmt.Errorf("ramp stalled: %d of %d connections up after 60s", n, targetConns))
	}

	// Sample the server-side open-connection peak for the soak's headline
	// number, then open the churn floodgates.
	if n := srv.Metrics().OpenConns.Load(); n > rep.PeakConns {
		rep.PeakConns = n
	}
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
			if n := srv.Metrics().OpenConns.Load(); n > rep.PeakConns {
				rep.PeakConns = n
			}
		}
	}()
	close(start)

	// Let the churn reach steady state, then measure the governed cheap
	// clients through the storm.
	time.Sleep(500 * time.Millisecond)
	churnRunner := newNetRunner(addr, "governed", mclients, 0)
	rep.UnderChurn = runPhase("under-churn", duration, mclients, 0, churnRunner)
	churnRunner.close()

	cancel()
	wg.Wait()
	<-monitorDone
	for _, p := range proxies {
		p.Close()
	}

	// Everything the storm allocated must come back: goroutines, file
	// descriptors, server connections, admission slots.
	settleDeadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(settleDeadline) {
		rep.EndGoroutines = runtime.NumGoroutine()
		rep.EndFDs = countFDs()
		rep.EndOpenConns = srv.Metrics().OpenConns.Load()
		rep.EndInFlight = srv.TenantGovernor("governed").InFlight()
		if rep.EndGoroutines <= rep.BaseGoroutines+16 &&
			(rep.BaseFDs < 0 || rep.EndFDs <= rep.BaseFDs+16) &&
			rep.EndOpenConns == 0 && rep.EndInFlight == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := srv.Shutdown(sctx); err != nil {
		scancel()
		fatal(fmt.Errorf("fdqd shutdown: %w", err))
	}
	scancel()

	rep.P99Ratio = round3(rep.UnderChurn.P99Micros / rep.Unloaded.P99Micros)
	rep.Pass = rep.PeakConns >= int64(targetConns) &&
		rep.UntypedErrors == 0 &&
		rep.P99Ratio <= rep.TargetP99 &&
		rep.EndGoroutines <= rep.BaseGoroutines+16 &&
		(rep.BaseFDs < 0 || rep.EndFDs <= rep.BaseFDs+16) &&
		rep.EndOpenConns == 0 && rep.EndInFlight == 0

	enc, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if out == "-" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(out, enc, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "saturate -churn: peak %d conns, %d ops (%d typed errors, %d untyped), p99 %.2f× unloaded (target ≤%.0f×), goroutines %d→%d, fds %d→%d, slots=%d: pass=%v\n",
		rep.PeakConns, rep.Ops, rep.TypedErrors, rep.UntypedErrors, rep.P99Ratio, rep.TargetP99,
		rep.BaseGoroutines, rep.EndGoroutines, rep.BaseFDs, rep.EndFDs, rep.EndInFlight, rep.Pass)
	if !rep.Pass {
		os.Exit(1)
	}
}

// churnWorker is one connection's life: dial through an assigned chaos
// proxy, report ready, wait for the floodgates, then churn — full
// queries, abandoned streams, hard disconnects, impatient deadlines,
// redials — until the soak ends.
func churnWorker(ctx context.Context, w int, proxyAddr string, rep *ChurnReport, addReady func(int64) int64, start <-chan struct{}) {
	rng := rand.New(rand.NewSource(int64(w)*2654435761 + 1))
	spec := cheapSpec()
	limited := *spec
	limited.Limit = 8
	// The abandoned stream: enough batches to be genuinely mid-stream,
	// cheap enough that two thousand of these don't become the benchmark.
	abandon := *spec
	abandon.Limit = 512

	var c *fdqc.Client
	closeConn := func() {
		if c != nil {
			c.Close()
			c = nil
		}
	}
	defer closeConn()

	classify := func(err error) {
		if err == nil {
			return
		}
		// A failed connection is not reused: drop it and redial next round,
		// exactly what a resilient caller would do.
		closeConn()
		if typedChurnError(err) {
			atomic.AddInt64(&rep.TypedErrors, 1)
		} else {
			atomic.AddInt64(&rep.UntypedErrors, 1)
			fmt.Fprintf(os.Stderr, "saturate -churn: worker %d untyped error: %v\n", w, err)
		}
	}
	redial := func() bool {
		closeConn()
		for ctx.Err() == nil {
			dctx, dcancel := context.WithTimeout(ctx, 10*time.Second)
			cc, err := fdqc.DialContext(dctx, proxyAddr,
				fdqc.WithTenant("governed"),
				fdqc.WithIOTimeout(2*time.Second),
				fdqc.WithDialTimeout(5*time.Second),
				fdqc.WithCancelGrace(250*time.Millisecond))
			dcancel()
			atomic.AddInt64(&rep.Dials, 1)
			if err == nil {
				c = cc
				return true
			}
			classify(err)
			select {
			case <-time.After(100 * time.Millisecond):
			case <-ctx.Done():
				return false
			}
		}
		return false
	}

	// Ramp: connect once (staggered so thousands of dials don't land in
	// one burst), count into the fleet, hold the connection open until the
	// floodgates lift.
	select {
	case <-time.After(time.Duration(rng.Intn(3000)) * time.Millisecond):
	case <-ctx.Done():
		return
	}
	if !redial() {
		return
	}
	addReady(1)
	select {
	case <-start:
	case <-ctx.Done():
		return
	}
	// Spread the fleet's op schedule so 2000 workers don't beat in phase.
	// The pacing keeps the whole fleet's op rate a small fraction of one
	// core: the soak's claim is about connection scale and fault recovery,
	// and a tail-latency measurement is only meaningful if the churn isn't
	// itself a CPU saturation benchmark.
	select {
	case <-time.After(time.Duration(rng.Intn(8000)) * time.Millisecond):
	case <-ctx.Done():
		return
	}

	// Start each worker at a random point in the op cycle so the fleet
	// exercises the whole mix from the first beat, not case 0 in unison.
	for i := rng.Intn(6); ctx.Err() == nil; i++ {
		if c == nil && !redial() {
			return
		}
		atomic.AddInt64(&rep.Ops, 1)
		switch i % 6 {
		case 0: // small bounded query, run to completion
			octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
			_, err := c.Count(octx, &limited)
			ocancel()
			classify(err)
		case 1: // abandon politely: one row, then a clean Close (cancel frame)
			octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
			rows, err := c.Query(octx, &abandon)
			if err == nil {
				rows.Next()
				err = rows.Close()
				atomic.AddInt64(&rep.Abandons, 1)
			}
			ocancel()
			classify(err)
		case 2: // abandon rudely: one row, then sever the connection
			octx, ocancel := context.WithTimeout(ctx, 2*time.Second)
			rows, err := c.Query(octx, &abandon)
			if err == nil {
				rows.Next()
				closeConn()
				atomic.AddInt64(&rep.HardCloses, 1)
			} else {
				classify(err)
			}
			ocancel()
		case 3: // impatient caller: a deadline most queries will beat, some won't
			octx, ocancel := context.WithTimeout(ctx, 25*time.Millisecond)
			_, err := c.Count(octx, &limited)
			ocancel()
			classify(err)
		case 4: // connection churn: goodbye and a fresh dial next round
			closeConn()
		case 5: // sit idle on the open connection
		}
		select {
		case <-time.After(time.Duration(8000+rng.Intn(8000)) * time.Millisecond):
		case <-ctx.Done():
			return
		}
	}
}
