package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/expand"
	"repro/internal/fd"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// These tests pin the lifetime of the prepared-inputs record (expand.Inputs)
// an instance's FD executors share across runs: who builds an entry, when it
// is visible, and that a failed build leaves nothing behind.

// udfTrap wraps every UDF of q: the at-th call (counting from 1, over all
// UDFs) runs trip first. at ≤ 0 disarms it.
type udfTrap struct {
	calls, at int
	trip      func()
}

func (u *udfTrap) install(q *query.Q) {
	for _, f := range q.FDs.FDs {
		for v, fn := range f.Fns {
			f.Fns[v] = func(args []fd.Value) fd.Value {
				u.calls++
				if u.calls == u.at {
					u.trip()
				}
				return fn(args)
			}
		}
	}
}

// buildCalls returns how many UDF calls a first run makes over a warm one:
// the calls made while the record's entries are built, which every FD
// executor does before anything else.
func buildCalls(t *testing.T, b *Bound, u *udfTrap, opts *Options) int {
	t.Helper()
	var n [2]int
	for i := range n {
		u.calls, u.at = 0, 0
		if _, err := b.RunInto(context.Background(), opts, &rel.CountSink{}); err != nil {
			t.Fatal(err)
		}
		n[i] = u.calls
	}
	if n[0] <= n[1] {
		t.Fatalf("first run made %d UDF calls, warm run %d: no entry build calls a UDF", n[0], n[1])
	}
	return n[0] - n[1]
}

// TestFailedRecordBuildLeavesNoEntry: a UDF that panics, or a context
// cancelled, while an entry is being built fails that run with the typed
// error, publishes nothing and releases the record's mutex; the next run on
// the same Bound builds what is missing and is byte-identical to a fresh
// Bound's, with every entry built exactly once. Every Bound of a case is
// bound from one Prepared, so all run the same memoized plan.
func TestFailedRecordBuildLeavesNoEntry(t *testing.T) {
	never := false
	for _, tc := range []struct {
		name  string
		build func() *query.Q
		alg   Algorithm
	}{
		{"fig4/auto", func() *query.Q { return family(t, "paper/fig4", 64, 1) }, AlgAuto},
		{"fig4/chain", func() *query.Q { return family(t, "paper/fig4", 64, 1) }, AlgChain},
		{"fig4/csma", func() *query.Q { return family(t, "paper/fig4", 64, 1) }, AlgCSMA},
		{"fig9/auto", func() *query.Q { return family(t, "paper/fig9", 32, 1) }, AlgAuto},
		{"fig9/chain", func() *query.Q { return family(t, "paper/fig9", 32, 1) }, AlgChain},
		// Inputs of 1600 rows, over the expansion's cancellation interval:
		// the cancelled context is seen in the middle of building R⁺.
		{"udf-triangle/auto", func() *query.Q { return boomQuery(40, &never) }, AlgAuto},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := tc.build()
			u := &udfTrap{}
			u.install(q)
			p, err := Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			fresh := func() *Bound {
				b, err := p.Bind(q.Rels)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}
			refB := fresh()
			// An auto run first attempts generic join, which builds no entry
			// when it fits: request the planner's machine explicitly.
			opts := &Options{Algorithm: tc.alg, Workers: 1}
			if tc.alg == AlgAuto {
				opts.Algorithm = refB.Plan().Algorithm
			}
			nbuild := buildCalls(t, refB, u, opts)
			wantBuilds := expand.For(refB.Query()).Builds()
			want, _, err := refB.Run(context.Background(), opts)
			if err != nil {
				t.Fatal(err)
			}

			for _, at := range []int{1, (nbuild + 1) / 2, nbuild} {
				for _, mode := range []string{"panic", "cancel"} {
					b := fresh()
					ctx, cancel := context.WithCancel(context.Background())
					u.trip = cancel
					if mode == "panic" {
						u.trip = func() { panic("boom: injected UDF failure") }
					}
					u.calls, u.at = 0, at
					_, _, err := b.Run(ctx, opts)
					cancel()
					var pe *PanicError
					switch {
					case mode == "panic" && !errors.As(err, &pe):
						t.Fatalf("%s at call %d: want *PanicError, got %v", mode, at, err)
					case mode == "cancel" && !errors.Is(err, context.Canceled):
						t.Fatalf("%s at call %d: want context.Canceled, got %v", mode, at, err)
					}
					// The panicking build must not have published; a cancellation
					// is only seen at the next check, so that build may finish.
					if got := expand.For(b.Query()).Builds(); got > wantBuilds || (mode == "panic" && got == wantBuilds) {
						t.Fatalf("%s at call %d: failed run left %d entries, a clean one builds %d", mode, at, got, wantBuilds)
					}
					u.at = 0
					out, _, err := b.Run(context.Background(), opts)
					if err != nil {
						t.Fatalf("%s at call %d: clean re-run failed: %v", mode, at, err)
					}
					if !rel.Identical(out, want) {
						t.Fatalf("%s at call %d: clean re-run differs from a fresh Bound's run", mode, at)
					}
					if got := expand.For(b.Query()).Builds(); got != wantBuilds {
						t.Fatalf("%s at call %d: %d entry builds after the re-run, a clean Bound makes %d", mode, at, got, wantBuilds)
					}
				}
			}
		})
	}
}

// TestBoundsOfOnePreparedDoNotShareRecords: two instances bound from one
// shape run concurrently (the lattice and plan records are shared, the records
// must not be), and each matches the reference on its own data.
func TestBoundsOfOnePreparedDoNotShareRecords(t *testing.T) {
	for _, alg := range []Algorithm{AlgAuto, AlgChain, AlgCSMA} {
		p, err := Prepare(scenario.FDDag(512, 1))
		if err != nil {
			t.Fatal(err)
		}
		b1, _ := p.Bind(nil)
		b2, err := p.Bind(scenario.FDDag(640, 2).Rels)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, b := range []*Bound{b1, b2} {
			want := naive.Evaluate(b.Query())
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(b *Bound) {
					defer wg.Done()
					out, _, err := b.Run(context.Background(), &Options{Algorithm: alg, Workers: 1})
					if err != nil {
						t.Errorf("%s: %v", alg, err)
					} else if !rel.Identical(out, want) {
						t.Errorf("%s: output differs from the reference on this Bound's data", alg)
					}
				}(b)
			}
		}
		wg.Wait()
	}
}

// TestRebindStartsFromAnEmptyRecord: re-binding the shape to a new version
// of the data — what a Catalog.Define does to a cached shape — never serves
// the previous version's R_j⁺. The new version changes one row of the guard
// of yz→u, so a stale T⁺ would show the old u.
func TestRebindStartsFromAnEmptyRecord(t *testing.T) {
	for _, alg := range []Algorithm{AlgAuto, AlgChain, AlgCSMA, AlgGenericJoin} {
		q := scenario.FDDag(256, 1)
		p, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		opts := &Options{Algorithm: alg, Workers: 1}
		b1, _ := p.Bind(nil)
		out1, _, err := b1.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}

		T := q.Rels[2]
		T2 := rel.New(T.Name, T.Attrs...)
		hit := out1.Row(out1.Len() / 2) // an output row: (x, y, z, u)
		changed := false
		for i := 0; i < T.Len(); i++ {
			row := append(rel.Tuple(nil), T.Row(i)...)
			if !changed && row[0] == hit[1] && row[1] == hit[2] {
				row[2] += 1000003
				changed = true
			}
			T2.AddTuple(row)
		}
		T2.SortDedup()
		b2, err := p.Bind([]*rel.Relation{q.Rels[0], q.Rels[1], T2})
		if err != nil {
			t.Fatal(err)
		}
		if err := b2.Query().Validate(); err != nil {
			t.Fatal(err)
		}
		out2, _, err := b2.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Identical(out2, naive.Evaluate(b2.Query())) {
			t.Fatalf("%s: re-bound run differs from the reference on the new data", alg)
		}
		if rel.Identical(out1, out2) {
			t.Fatalf("%s: the changed guard row did not change the answer: the test proves nothing", alg)
		}
		// The first binding still answers from its own version.
		again, _, err := b1.Run(context.Background(), opts)
		if err != nil || !rel.Identical(again, out1) {
			t.Fatalf("%s: first binding changed its answer after the re-bind (err %v)", alg, err)
		}
	}
}

// TestConcurrentFirstRunsBuildEachEntryOnce: eight first runs of one Bound
// race for the record; every entry is built once and all eight agree.
func TestConcurrentFirstRunsBuildEachEntryOnce(t *testing.T) {
	for _, tc := range []struct {
		fam  string
		size int
	}{{"paper/fig1-skew", 512}, {"paper/fig4", 64}, {"paper/fig9", 32}, {"paper/degree-triangle", 256}, {"fd/dag", 256}} {
		refB := bind(t, family(t, tc.fam, tc.size, 1))
		// The planner's machine, explicitly: an auto run whose generic-join
		// attempt fits builds no entry.
		opts := &Options{Algorithm: refB.Plan().Algorithm, Workers: 1}
		want, _, err := refB.Run(context.Background(), opts)
		if err != nil {
			t.Fatal(err)
		}
		wantBuilds := expand.For(refB.Query()).Builds()
		if wantBuilds == 0 {
			t.Fatalf("%s (%s): a run built no record entry", tc.fam, refB.Plan().Algorithm)
		}

		// A second Bound of the same Prepared: an empty record, the same plan.
		b, err := refB.prep.Bind(refB.q.Rels)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out, _, err := b.Run(context.Background(), opts)
				if err != nil {
					t.Errorf("%s: %v", tc.fam, err)
				} else if !rel.Identical(out, want) {
					t.Errorf("%s: concurrent first run differs from a lone one", tc.fam)
				}
			}()
		}
		wg.Wait()
		if got := expand.For(b.Query()).Builds(); got != wantBuilds {
			t.Fatalf("%s: 8 concurrent first runs made %d entry builds, a lone run makes %d", tc.fam, got, wantBuilds)
		}
	}
}

// TestSecondRunBuildsNoIndexes: after one run, a count, a collect and a
// LIMIT-1 run build no record entry; under the chain algorithm and generic
// join — which index only sealed relations — they build no index either, and
// under SM / CSMA only the ones on that run's own intermediate tables (the
// same number every run). Under auto an SM or CSMA plan whose generic-join
// attempt fits runs generic join warm, which builds none.
func TestSecondRunBuildsNoIndexes(t *testing.T) {
	ctx := context.Background()
	planned := map[Algorithm]bool{}
	for _, tc := range []struct {
		fam  string
		size int
	}{
		{"paper/fig1-skew", 512}, {"paper/fig1-quasi", 256}, {"paper/m3-mod", 64}, {"paper/fig4", 64},
		{"paper/colored-triangle", 256}, {"paper/fig9", 32}, {"paper/degree-triangle", 512},
		{"paper/simple-fd-chain", 64}, {"paper/four-cycle-key", 512}, {"fd/dag", 256},
	} {
		b := bind(t, family(t, tc.fam, tc.size, 1))
		alg := b.Plan().Algorithm
		planned[alg] = true
		sinks := func() []rel.Sink {
			return []rel.Sink{&rel.CountSink{}, rel.NewCollect("Q", b.Query().AllVars().Members()...), rel.Limit(&rel.CountSink{}, 1)}
		}
		runAll := func() (indexes int64) {
			before := rel.IndexBuilds()
			for _, s := range sinks() {
				if _, err := b.RunInto(ctx, &Options{Workers: 1}, s); err != nil {
					t.Fatalf("%s: %v", tc.fam, err)
				}
			}
			return rel.IndexBuilds() - before
		}
		if _, err := b.RunInto(ctx, &Options{Workers: 1}, &rel.CountSink{}); err != nil {
			t.Fatalf("%s: %v", tc.fam, err)
		}
		builds := expand.For(b.Query()).Builds()
		second, third := runAll(), runAll()
		if got := expand.For(b.Query()).Builds(); got != builds {
			t.Errorf("%s (%s): warm runs built %d record entries", tc.fam, alg, got-builds)
		}
		if second != third {
			t.Errorf("%s (%s): warm rounds built %d then %d indexes: something is still being cached late", tc.fam, alg, second, third)
		}
		if (alg == AlgChain || alg == AlgGenericJoin) && second != 0 {
			t.Errorf("%s (%s): a warm round built %d indexes, want 0", tc.fam, alg, second)
		}
	}
	for _, alg := range []Algorithm{AlgChain, AlgSM, AlgCSMA} {
		if !planned[alg] {
			t.Errorf("no instance was planned to %s: the test lost its coverage", alg)
		}
	}
}
