// Fault-injection conformance: re-run the scenario catalog with faults
// forced at the canonical injection sites and assert the robustness
// contract — a typed error (never a process death), no leaked goroutines,
// and a byte-identical result on the next clean run.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/fdq"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/naive"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// Fault modes of the matrix.
const (
	ModePanic = "panic"
	ModeDelay = "delay"
)

// FaultCheck reports one (site, mode) cell of the fault matrix.
type FaultCheck struct {
	Site   string `json:"site"`
	Mode   string `json:"mode"`
	Status string `json:"status"` // pass | fail | skip (site not reached)
	Detail string `json:"detail,omitempty"`
}

// FaultResult is the fault-injection record of one scenario instance (or
// of the session-level harness).
type FaultResult struct {
	Scenario string       `json:"scenario"`
	Checks   []FaultCheck `json:"checks"`
	Pass     bool         `json:"pass"`
	Failures []string     `json:"failures,omitempty"`
	Millis   float64      `json:"millis"`
}

func (r *FaultResult) fail(format string, args ...any) {
	r.Pass = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// faultDelay is the injected stall for ModeDelay cells: long enough to be
// a real perturbation, short enough for CI (each site fires once).
const faultDelay = 2 * time.Millisecond

// faultSite is one row of the engine-level fault matrix: the site plus the
// execution configuration that reaches it.
type faultSite struct {
	site    string
	opts    *engine.Options
	useChan bool // deliver through a BlockSink (the streaming path) to reach the site
}

func engineFaultSites() []faultSite {
	par := &engine.Options{Workers: 3, MinParallelRows: 1}
	return []faultSite{
		{site: faultinject.SiteTrieDescent, opts: &engine.Options{Algorithm: engine.AlgGenericJoin, Workers: 1}},
		{site: faultinject.SitePartitionWorker, opts: par},
		{site: faultinject.SiteMorselQueue, opts: par},
		{site: faultinject.SiteStreamMerge, opts: par},
		{site: faultinject.SiteSinkPush, opts: &engine.Options{Workers: 1}, useChan: true},
	}
}

// CheckFaultInstance runs one scenario instance through the fault matrix:
// every reachable site × {panic, delay}. For each cell it asserts the
// armed run's outcome (a typed *engine.PanicError carrying the injected
// site for panics; clean completion for delays), that no goroutine
// outlives the run, and that the very next clean run is byte-identical to
// the naive reference. A site the configuration never reaches is recorded
// as a skip, never silently passed.
func CheckFaultInstance(ctx context.Context, in scenario.Instance) (res FaultResult) {
	start := time.Now()
	res = FaultResult{Scenario: in.Name, Pass: true}
	defer func() { res.Millis = float64(time.Since(start).Microseconds()) / 1000 }()
	defer faultinject.Reset()

	q := in.Build()
	if err := q.Validate(); err != nil {
		res.fail("instance does not validate: %v", err)
		return res
	}
	want := naive.Evaluate(q)
	p, err := engine.Prepare(q)
	if err != nil {
		res.fail("prepare: %v", err)
		return res
	}
	b, err := p.Bind(nil)
	if err != nil {
		res.fail("bind: %v", err)
		return res
	}
	base := runtime.NumGoroutine()

	for _, fs := range engineFaultSites() {
		for _, mode := range []string{ModePanic, ModeDelay} {
			res.Checks = append(res.Checks, runFaultCell(ctx, &res, b, fs, mode, want, base))
		}
	}
	return res
}

// runFaultCell executes one (site, mode) cell against an instance.
func runFaultCell(ctx context.Context, res *FaultResult, b *engine.Bound, fs faultSite, mode string, want *rel.Relation, base int) FaultCheck {
	cell := FaultCheck{Site: fs.site, Mode: mode, Status: StatusPass}
	cellFail := func(format string, args ...any) {
		cell.Status = StatusFail
		cell.Detail = fmt.Sprintf(format, args...)
		res.fail("%s/%s: %s", fs.site, mode, cell.Detail)
	}

	faultinject.Reset()
	f := faultinject.Fault{Kind: faultinject.KindPanic, Times: 1}
	if mode == ModeDelay {
		f = faultinject.Fault{Kind: faultinject.KindDelay, Times: 1, Delay: faultDelay}
	}
	faultinject.Arm(fs.site, f)
	out, err := runForFault(ctx, b, fs)
	hits := faultinject.Hits(fs.site)
	faultinject.Reset()

	switch {
	case hits == 0:
		// The configuration never reached the site (e.g. nothing to merge,
		// or too little work to hit the descent's check cadence).
		if err != nil {
			cellFail("site unreached yet run failed: %v", err)
		} else {
			cell.Status = StatusSkip
			cell.Detail = "site not reached by this instance"
		}
	case mode == ModePanic:
		var pe *engine.PanicError
		if err == nil {
			cellFail("injected panic was swallowed: run reported success")
		} else if !errors.As(err, &pe) {
			cellFail("injected panic surfaced as untyped error: %v", err)
		} else if inj, ok := pe.Value.(faultinject.Injected); !ok || inj.Site != fs.site {
			cellFail("panic error carries %#v, not the injected fault", pe.Value)
		}
	default: // ModeDelay
		if err != nil {
			cellFail("delayed run failed: %v", err)
		} else if !rel.Identical(out, want) {
			cellFail("delayed run output differs from reference (%d vs %d rows)", out.Len(), want.Len())
		}
	}

	if !settleGoroutines(base) {
		cellFail("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
	}

	// The robustness contract's last clause: the fault must leave no
	// residue — the next clean run is byte-identical to the reference.
	clean, cerr := runForFault(ctx, b, fs)
	if cerr != nil {
		cellFail("clean re-run after fault failed: %v", cerr)
	} else if !rel.Identical(clean, want) {
		cellFail("clean re-run differs from reference (%d vs %d rows)", clean.Len(), want.Len())
	}
	return cell
}

// runForFault executes the instance under the cell's configuration,
// materializing the output. The BlockSink flavor mirrors the public
// streaming path: rows cross to a consumer goroutine in blocks.
func runForFault(ctx context.Context, b *engine.Bound, fs faultSite) (*rel.Relation, error) {
	if !fs.useChan {
		out, _, err := b.Run(ctx, fs.opts)
		return out, err
	}
	out := rel.New("Q", b.Query().AllVars().Members()...)
	sink := rel.NewBlockSink(ctx.Done())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for blk := range sink.C {
			for i, w := 0, len(out.Attrs); i < blk.N; i++ {
				out.AddTuple(blk.Vals[i*w : (i+1)*w])
			}
		}
	}()
	_, err := b.RunInto(ctx, fs.opts, sink)
	sink.Flush()
	close(sink.C)
	<-done
	return out, err
}

// settleGoroutines waits for the goroutine count to return to the
// baseline, reporting whether it did.
func settleGoroutines(base int) bool {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// CheckSessionFaults exercises the fdq-level site the scenario matrix
// cannot reach — the prepared-shape cache's eviction path — through the
// public API: a panic mid-eviction must surface as the typed
// fdq.ErrPanicked (the process, session, and cache stay usable), and a
// delay there must be harmless.
func CheckSessionFaults(ctx context.Context) (res FaultResult) {
	start := time.Now()
	res = FaultResult{Scenario: "fdq/session", Pass: true}
	defer func() { res.Millis = float64(time.Since(start).Microseconds()) / 1000 }()
	defer faultinject.Reset()

	const n = 4
	newCatalog := func() *fdq.Catalog {
		cat := fdq.NewCatalog()
		var rows [][]fdq.Value
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rows = append(rows, []fdq.Value{int64(i), int64(j)})
			}
		}
		if err := cat.Define("E", []string{"a", "b"}, rows); err != nil {
			res.fail("catalog: %v", err)
		}
		return cat
	}
	scanQ := func() *fdq.Q { return fdq.Query().Vars("x", "y").Rel("E", "x", "y") }
	pathQ := func() *fdq.Q {
		return fdq.Query().Vars("x", "y", "z").Rel("E", "x", "y").Rel("E", "y", "z")
	}
	base := runtime.NumGoroutine()

	for _, mode := range []string{ModePanic, ModeDelay} {
		cell := FaultCheck{Site: faultinject.SiteCacheEvict, Mode: mode, Status: StatusPass}
		cellFail := func(format string, args ...any) {
			cell.Status = StatusFail
			cell.Detail = fmt.Sprintf(format, args...)
			res.fail("%s/%s: %s", cell.Site, mode, cell.Detail)
		}

		cat := newCatalog()
		sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(1))
		if _, err := sess.Collect(ctx, scanQ()); err != nil {
			cellFail("warmup: %v", err)
			res.Checks = append(res.Checks, cell)
			continue
		}
		faultinject.Reset()
		f := faultinject.Fault{Kind: faultinject.KindPanic, Times: 1}
		if mode == ModeDelay {
			f = faultinject.Fault{Kind: faultinject.KindDelay, Times: 1, Delay: faultDelay}
		}
		faultinject.Arm(faultinject.SiteCacheEvict, f)
		_, err := sess.Collect(ctx, pathQ()) // second shape evicts the first
		hits := faultinject.Hits(faultinject.SiteCacheEvict)
		faultinject.Reset()

		switch {
		case hits == 0:
			cellFail("eviction site never fired (cache policy changed?)")
		case mode == ModePanic:
			if !errors.Is(err, fdq.ErrPanicked) {
				cellFail("eviction panic surfaced as %v, want fdq.ErrPanicked", err)
			}
		default:
			if err != nil {
				cellFail("delayed eviction failed the query: %v", err)
			}
		}

		if !settleGoroutines(base) {
			cellFail("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		got, err := sess.Collect(ctx, pathQ())
		if err != nil {
			cellFail("session unusable after fault: %v", err)
		} else if len(got) != n*n*n {
			cellFail("post-fault result has %d rows, want %d", len(got), n*n*n)
		} else if st := sess.CacheStats(); st.Entries > 1 {
			cellFail("cache over capacity after fault: %+v", st)
		}
		res.Checks = append(res.Checks, cell)
	}
	return res
}
