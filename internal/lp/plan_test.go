package lp_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/lp"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// catalogQuery builds a catalog family at (size, seed), or the six-variable
// simple-FD chain the benchmark adds to it.
func catalogQuery(t *testing.T, family string, size int, seed int64) *query.Q {
	t.Helper()
	if family == "paper/simple-fd-chain-6" {
		return paper.SimpleFDChain(6, size)
	}
	for _, f := range scenario.Catalog() {
		if f.Name == family {
			return f.Build(scenario.Params{Size: size, Seed: seed})
		}
	}
	t.Fatalf("no catalog family %q", family)
	return nil
}

// coldShapes are the twelve FD / degree shapes of the benchmark's plan-cold
// workload (seed 1), with the LPs a cold plan and a cold run of each solve.
var coldShapes = []struct {
	family    string
	size      int
	plan, run int
}{
	{"paper/fig1-quasi", 64, 8, 1},
	{"paper/m3-mod", 24, 2, 1},
	{"paper/fig4", 64, 15, 1},
	{"paper/fig9", 32, 11, 1},
	{"paper/fig5", 48, 2, 1},
	{"paper/degree-triangle", 128, 3, 3},
	{"paper/colored-triangle", 64, 27, 1},
	{"paper/simple-fd-chain-6", 32, 2, 1},
	{"paper/four-cycle-key", 64, 2, 1},
	{"paper/composite-key", 12, 2, 1},
	{"fd/dag", 64, 2, 1},
	{"fd/cycle", 64, 2, 1},
}

// coldBound prepares and binds q, solving whatever that solves.
func coldBound(t *testing.T, q *query.Q) *engine.Bound {
	t.Helper()
	p, err := engine.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestColdPlanSolveCounts pins the LPs one cold Prepare → Bind → Plan solves
// on coldShapes. The planner solves the LLP first, stops the chain search at
// the first chain whose bound reaches it, and solves the CLLP only where it
// can win: with degree bounds (degree-triangle), or where the LLP beats every
// chain and no good SM proof exists (fig9, which also searches every chain
// and, its solver weights having no good proof, solves the explicit dual LLP
// for a second candidate). A full chain search, LLP and CLLP on every shape
// solve 220.
func TestColdPlanSolveCounts(t *testing.T) {
	for _, tc := range coldShapes {
		q := catalogQuery(t, tc.family, tc.size, 1)
		var pl *engine.Plan
		got := len(lp.CollectSolves(func() { pl = coldBound(t, q).Plan() }))
		if got != tc.plan {
			t.Errorf("%s@%d: cold plan (%s) solved %d LPs, want %d", tc.family, tc.size, pl.Algorithm, got, tc.plan)
		}
	}
}

// TestColdRunSolveCounts pins the LPs one cold Prepare → Bind → counting
// auto run solves on coldShapes, sequential and on the morsel path: the LLP
// alone, except on degree-triangle, which has degree bounds and so is
// admitted on its full plan. The machine is chosen only when the generic-join
// attempt overruns, which it does on none of these.
func TestColdRunSolveCounts(t *testing.T) {
	for _, opts := range []engine.Options{{Workers: 1}, {Workers: 2, MinParallelRows: 1}} {
		for _, tc := range coldShapes {
			q := catalogQuery(t, tc.family, tc.size, 1)
			var st *engine.Stats
			got := len(lp.CollectSolves(func() {
				var err error
				st, err = coldBound(t, q).RunInto(context.Background(), &opts, &rel.CountSink{})
				if err != nil {
					t.Fatal(err)
				}
			}))
			if got != tc.run {
				t.Errorf("%s@%d on %d workers: cold run (plan %s, ran %s) solved %d LPs, want %d", tc.family, tc.size, st.Workers, st.Plan.Algorithm, st.Ran, got, tc.run)
			}
		}
	}
}

// TestSplitsRunTheParentsPlan: once the whole instance is planned, the
// splits of a parallel run run its chain, SM proof or CSM plan as they are
// and solve no LP at their own sizes, and the merged rows are the
// sequential run's. An auto run reaches the chain's splits through
// Example 5.8's overrun; SM and CSMA splits, whose instances the attempt
// fits, are explicit requests.
func TestSplitsRunTheParentsPlan(t *testing.T) {
	fig4, _ := paper.Fig4Instance(125)
	for _, tc := range []struct {
		name string
		q    *query.Q
		req  engine.Algorithm
		alg  engine.Algorithm
	}{
		{"fig4", fig4, engine.AlgSM, engine.AlgSM},
		{"fig1-skew", paper.Fig1Skew(512), engine.AlgAuto, engine.AlgChain},
		{"degree-triangle", paper.DegreeTriangle(512, 2), engine.AlgCSMA, engine.AlgCSMA},
	} {
		b := coldBound(t, tc.q)
		if pl := b.Plan(); pl.Algorithm != tc.alg {
			t.Fatalf("%s: planned %s, want %s", tc.name, pl.Algorithm, tc.alg)
		}
		// A Bound of its own, so that b's first run is the one that decides.
		seq, _, err := coldBound(t, tc.q).Run(context.Background(), &engine.Options{Algorithm: tc.req, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var par *rel.Relation
		var st *engine.Stats
		solves := lp.CollectSolves(func() {
			par, st, err = b.Run(context.Background(), &engine.Options{Algorithm: tc.req, Workers: 2, MinParallelRows: 1})
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != 2 || st.Plan.Algorithm != tc.alg || st.Ran != tc.alg {
			t.Fatalf("%s: ran %s (plan %s) on %d workers, want %s on 2", tc.name, st.Ran, st.Plan.Algorithm, st.Workers, tc.alg)
		}
		if len(solves) != 0 {
			t.Errorf("%s: the splits solved %d LPs", tc.name, len(solves))
		}
		if !rel.Identical(par, seq) {
			t.Errorf("%s: parallel rows differ from sequential (%d vs %d)", tc.name, par.Len(), seq.Len())
		}
	}
}

// TestExplicitChainSolvesNoLLPOnLargeLattices: the chain search reads the
// LLP floor only on a lattice of ≤ 64 elements, the only one whose maximal
// chains it enumerates. An explicit chain run on motif/path-8@16 (FD-free,
// 256 closed sets) or on any small-tier shape with a larger lattice solves
// the constructions' edge covers and no LP over the lattice's elements — one
// that, on these lattices, would not fit in memory, so it is refused before
// it is solved.
func TestExplicitChainSolvesNoLLPOnLargeLattices(t *testing.T) {
	type named struct {
		name string
		q    *query.Q
	}
	qs := []named{{"motif/path-8@16", scenario.PathQuery(8, 16, 1)}}
	for _, in := range scenario.Instances(scenario.TierSmall) {
		if q := in.Build(); q.Lattice().Size() > 64 {
			qs = append(qs, named{in.Name, q})
		}
	}
	for _, nq := range qs {
		size := nq.q.Lattice().Size()
		if size <= 64 {
			t.Fatalf("%s: lattice of %d elements; the test wants more than 64", nq.name, size)
		}
		problems := lp.CollectSolvesBelow(size, func() {
			p, err := engine.Prepare(nq.q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := b.Run(context.Background(), &engine.Options{Algorithm: engine.AlgChain, Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if len(problems) == 0 {
			t.Errorf("%s: the chain run solved no LP: the search went unobserved", nq.name)
		}
	}
}
