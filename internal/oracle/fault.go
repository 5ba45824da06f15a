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
	"repro/internal/rel"
	"repro/internal/scenario"
)

// Fault modes of the matrix.
const (
	modePanic = "panic"
	modeDelay = "delay"
)

// faultDelay is the injected stall for modeDelay cells: long enough to be
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

// arm forces one fault of the mode at site; the returned disarm clears the
// registry and reports how often the site fired.
func arm(site, mode string) (disarm func() int) {
	faultinject.Reset()
	f := faultinject.Fault{Kind: faultinject.KindPanic, Times: 1}
	if mode == modeDelay {
		f = faultinject.Fault{Kind: faultinject.KindDelay, Times: 1, Delay: faultDelay}
	}
	faultinject.Arm(site, f)
	return func() int {
		hits := faultinject.Hits(site)
		faultinject.Reset()
		return hits
	}
}

// CheckFaultInstance runs one scenario instance through the fault matrix:
// every reachable site × {panic, delay}, one check fault/<site>/<mode>
// each. For each cell it asserts the armed run's outcome (a typed
// *engine.PanicError carrying the injected site for panics; clean
// completion for delays), that no goroutine outlives the run, and that the
// very next clean run is byte-identical to the naive reference. A site the
// configuration never reaches is recorded as a skip, never silently passed.
func CheckFaultInstance(ctx context.Context, in scenario.Instance) (res MatrixResult) {
	res = MatrixResult{Scenario: in.Name, Verdict: Verdict{Pass: true}}
	defer res.finish(time.Now())
	defer faultinject.Reset()

	q := in.Build()
	want, err := reference(q)
	if err != nil {
		res.fail("%v", err)
		return res
	}
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
		for _, mode := range []string{modePanic, modeDelay} {
			check(&res.Verdict, &res.Checks, "fault/"+fs.site+"/"+mode, func() error {
				return runFaultCell(ctx, b, fs, mode, want, base)
			})
		}
	}
	return res
}

// runFaultCell executes one (site, mode) cell against an instance.
func runFaultCell(ctx context.Context, b *engine.Bound, fs faultSite, mode string, want *rel.Relation, base int) error {
	var errs []error
	disarm := arm(fs.site, mode)
	out, err := runForFault(ctx, b, fs)
	hits := disarm()

	switch {
	case hits == 0:
		// The configuration never reached the site (e.g. nothing to merge,
		// or too little work to hit the descent's check cadence).
		if err != nil {
			errs = append(errs, fmt.Errorf("site unreached yet run failed: %w", err))
		}
	case mode == modePanic:
		var pe *engine.PanicError
		if err == nil {
			errs = append(errs, errors.New("injected panic was swallowed: run reported success"))
		} else if !errors.As(err, &pe) {
			errs = append(errs, fmt.Errorf("injected panic surfaced as untyped error: %w", err))
		} else if inj, ok := pe.Value.(faultinject.Injected); !ok || inj.Site != fs.site {
			errs = append(errs, fmt.Errorf("panic error carries %#v, not the injected fault", pe.Value))
		}
	default: // modeDelay
		if err != nil {
			errs = append(errs, fmt.Errorf("delayed run failed: %w", err))
		} else if !rel.Identical(out, want) {
			errs = append(errs, fmt.Errorf("delayed run output differs from reference (%d vs %d rows)", out.Len(), want.Len()))
		}
	}

	if !settleGoroutines(base) {
		errs = append(errs, fmt.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base))
	}

	// The robustness contract's last clause: the fault must leave no
	// residue — the next clean run is byte-identical to the reference.
	clean, cerr := runForFault(ctx, b, fs)
	if cerr != nil {
		errs = append(errs, fmt.Errorf("clean re-run after fault failed: %w", cerr))
	} else if !rel.Identical(clean, want) {
		errs = append(errs, fmt.Errorf("clean re-run differs from reference (%d vs %d rows)", clean.Len(), want.Len()))
	}
	if hits == 0 && len(errs) == 0 {
		return skip("site not reached by this instance")
	}
	return errors.Join(errs...)
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
// public API, as the run-level record fdq/session: a panic mid-eviction
// must surface as the typed fdq.ErrPanicked (the process, session, and
// cache stay usable), and a delay there must be harmless.
func CheckSessionFaults(ctx context.Context) (res MatrixResult) {
	res = MatrixResult{Scenario: "fdq/session", Verdict: Verdict{Pass: true}}
	defer res.finish(time.Now())
	defer faultinject.Reset()

	const n = 4
	var rows [][]fdq.Value
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows, []fdq.Value{int64(i), int64(j)})
		}
	}
	scanQ := func() *fdq.Q { return fdq.Query().Vars("x", "y").Rel("E", "x", "y") }
	pathQ := func() *fdq.Q {
		return fdq.Query().Vars("x", "y", "z").Rel("E", "x", "y").Rel("E", "y", "z")
	}
	base := runtime.NumGoroutine()

	for _, mode := range []string{modePanic, modeDelay} {
		check(&res.Verdict, &res.Checks, "fault/"+faultinject.SiteCacheEvict+"/"+mode, func() error {
			cat := fdq.NewCatalog()
			if err := cat.Define("E", []string{"a", "b"}, rows); err != nil {
				return fmt.Errorf("catalog: %w", err)
			}
			sess := fdq.NewSession(cat, fdq.WithPreparedCacheSize(1))
			if _, err := sess.Collect(ctx, scanQ()); err != nil {
				return fmt.Errorf("warmup: %w", err)
			}
			var errs []error
			disarm := arm(faultinject.SiteCacheEvict, mode)
			_, err := sess.Collect(ctx, pathQ()) // second shape evicts the first
			switch hits := disarm(); {
			case hits == 0:
				errs = append(errs, errors.New("eviction site never fired (cache policy changed?)"))
			case mode == modePanic:
				if !errors.Is(err, fdq.ErrPanicked) {
					errs = append(errs, fmt.Errorf("eviction panic surfaced as %v, want fdq.ErrPanicked", err))
				}
			default:
				if err != nil {
					errs = append(errs, fmt.Errorf("delayed eviction failed the query: %w", err))
				}
			}

			if !settleGoroutines(base) {
				errs = append(errs, fmt.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base))
			}
			got, err := sess.Collect(ctx, pathQ())
			if err != nil {
				errs = append(errs, fmt.Errorf("session unusable after fault: %w", err))
			} else if len(got) != n*n*n {
				errs = append(errs, fmt.Errorf("post-fault result has %d rows, want %d", len(got), n*n*n))
			} else if st := sess.CacheStats(); st.Entries > 1 {
				errs = append(errs, fmt.Errorf("cache over capacity after fault: %+v", st))
			}
			return errors.Join(errs...)
		})
	}
	return res
}
