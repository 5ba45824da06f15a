package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
)

// FuzzPlannerConsistency drives the cost-based planner and both execution
// paths on random FD-consistent queries: the planner's choice must be
// deterministic for a fixed shape+instance, the FD-aware decision planned
// from the LLP floor must equal the full search's (referencePlan) — checked
// directly, since FD-free instances are not planned by it — and sequential and parallel execution must both reproduce the
// naive reference byte-for-byte, as must an FD plan resumed after its
// generic-join attempt overran, on one worker and on three (where the
// overrun can land mid-stream on the morsel frontier, and the machine
// resumes split). The admission record's bound must be the plan's, and a
// fresh shape's run admitted on it must plan its machine at the overrun.
func FuzzPlannerConsistency(f *testing.F) {
	f.Add(int64(2016), 4, 3, 20, 4, true)
	f.Add(int64(516), 3, 2, 12, 3, false)
	f.Add(int64(7), 5, 4, 30, 6, true)
	f.Add(int64(1), 3, 1, 0, 2, false) // empty relations
	f.Add(int64(42), 4, 2, 8, 1, true) // single-value domain
	f.Fuzz(func(t *testing.T, seed int64, nVars, nRels, nRows, domain int, withFDs bool) {
		// Fold the raw fuzz inputs into the supported envelope; keep sizes
		// small so each case runs in milliseconds.
		nVars = 2 + fold(nVars, 4)   // 2..5
		nRels = 1 + fold(nRels, 3)   // 1..3
		nRows = fold(nRows, 32)      // 0..31
		domain = 1 + fold(domain, 6) // 1..6

		rng := rand.New(rand.NewSource(seed))
		q := scenario.RandomQuery(rng, nVars, nRels, nRows, domain, withFDs)
		if err := q.Validate(); err != nil {
			t.Fatalf("generated query invalid: %v", err)
		}
		want := naive.Evaluate(q)

		p, err := Prepare(q)
		if err != nil {
			t.Fatalf("prepare: %v", err)
		}
		b, err := p.Bind(nil)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}

		// Plan determinism: two plans for the same bound instance must agree.
		pl1, pl2 := b.Plan(), b.Plan()
		if pl1.Algorithm != pl2.Algorithm || pl1.LogBound != pl2.LogBound || pl1.Reason != pl2.Reason {
			t.Fatalf("plan not deterministic: %+v vs %+v", pl1, pl2)
		}
		fdPlan := planFDAware(b.Query())
		if d := samePlan(fdPlan, referencePlan(q)); d != "" {
			t.Fatal(d)
		}
		// Admission on the LLP alone certifies the plan's own bound.
		if adm := admitFDAware(b.Query()); math.Float64bits(adm.LogBound) != math.Float64bits(fdPlan.LogBound) {
			t.Fatalf("admitted on 2^%v, planned %s on 2^%v", adm.LogBound, fdPlan.Algorithm, fdPlan.LogBound)
		}
		if adm, pl := b.Admission(), b.Plan(); math.Float64bits(adm.LogBound) != math.Float64bits(pl.LogBound) {
			t.Fatalf("admitted on 2^%v, planned %s on 2^%v", adm.LogBound, pl.Algorithm, pl.LogBound)
		}

		seq, st, err := b.Run(context.Background(), &Options{Workers: 1})
		if err != nil {
			t.Fatalf("sequential run (%s): %v", st.Plan.Algorithm, err)
		}
		if !rel.Identical(seq, want) {
			t.Fatalf("planner chose %s (%s): %d rows, want %d",
				st.Plan.Algorithm, st.Plan.Reason, seq.Len(), want.Len())
		}
		// An FD plan's generic-join attempt at a budget factor of 0 overruns
		// before its first row, at 1 mostly after some rows, at 2 mostly
		// fits: the planned machine's resume must complete exactly the same
		// answer, sequentially and on three workers. So must a fresh shape's
		// run admitted on the LLP alone, whose machine is planned at the
		// overrun and then reported in st.Plan.
		defer func(c int) { attemptFactor = c }(attemptFactor)
		attemptFactor = fold(int(seed), 3)
		fresh := scenario.RandomQuery(rand.New(rand.NewSource(seed)), nVars, nRels, nRows, domain, withFDs)
		for _, tc := range []struct {
			q    *query.Q
			plan *Plan
		}{{q, fdPlan}, {fresh, admitFDAware(fresh)}} {
			if !attempts(tc.plan) {
				continue
			}
			for _, workers := range []int{1, 3} {
				p0, err := Prepare(tc.q)
				if err != nil {
					t.Fatalf("prepare: %v", err)
				}
				b0, err := p0.Bind(tc.q.Rels)
				if err != nil {
					t.Fatalf("bind: %v", err)
				}
				c := rel.NewCollect("Q", q.AllVars().Members()...)
				st := &Stats{Plan: *tc.plan, Ran: tc.plan.Algorithm}
				if err := b0.attemptInto(context.Background(), tc.plan, workers, &memGauge{}, st, c, func() int { return c.R.Len() }); err != nil {
					t.Fatalf("%s with an attempt at factor %d on %d workers: %v", tc.plan.Algorithm, attemptFactor, workers, err)
				}
				if !rel.Identical(c.R, want) {
					t.Fatalf("%s, ran %s after an attempt at factor %d on %d workers: %d rows, want %d", tc.plan.Algorithm, st.Ran, attemptFactor, workers, c.R.Len(), want.Len())
				}
				won := b0.won.Load()
				if won == nil || won == attemptFit && st.Ran != AlgGenericJoin {
					t.Fatalf("a finished attempt at factor %d on %d workers decided %v, ran %s", attemptFactor, workers, won, st.Ran)
				}
				if tc.plan.Algorithm == AlgAuto && won != attemptFit &&
					(won != b0.Plan() || !reflect.DeepEqual(st.Plan, *b0.Plan()) || st.Ran != won.Algorithm) {
					t.Fatalf("admitted run overran at factor %d on %d workers: reports %+v, ran %s; the planner %+v", attemptFactor, workers, st.Plan, st.Ran, *b0.Plan())
				}
			}
		}
		par, _, err := b.Run(context.Background(), &Options{Workers: 3, MinParallelRows: 1})
		if err != nil {
			t.Fatalf("parallel run: %v", err)
		}
		if !rel.Identical(par, seq) {
			t.Fatalf("parallel output differs from sequential: %d vs %d rows", par.Len(), seq.Len())
		}
		// Explicit FD machines split too, every split running the artifact
		// solved on the whole instance. Only the typed errors the oracle
		// records as skips excuse a run.
		for _, alg := range []Algorithm{AlgChain, AlgSM, AlgCSMA} {
			out, _, err := b.Run(context.Background(), &Options{Algorithm: alg, Workers: 3, MinParallelRows: 1})
			switch {
			case alg == AlgChain && errors.Is(err, chainalg.ErrNoGoodChain),
				alg == AlgSM && errors.Is(err, smalg.ErrNoGoodProof):
			case err != nil:
				t.Fatalf("explicit %s on 3 workers: %v", alg, err)
			case !rel.Identical(out, want):
				t.Fatalf("explicit %s on 3 workers: %d rows, want %d", alg, out.Len(), want.Len())
			}
		}
	})
}

// fold maps an arbitrary fuzzed int into [0, n) without the overflow trap
// of abs(math.MinInt).
func fold(x, n int) int {
	return int(uint(x) % uint(n))
}
