package engine

import (
	"context"
	"testing"

	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
)

// --- splits run the parent's plan ---

func TestRunPartitionPlannerChainOnEmptyPartition(t *testing.T) {
	// A planner-supplied plan — the chain, the SM proof, the CSM plan, each
	// solved on the whole instance — must survive a partition whose
	// relations are empty (a split of a sparse instance can leave one).
	fig4, _ := paper.Fig4Instance(125)
	fig9, _ := paper.Fig9Instance(64)
	for _, tc := range []struct {
		alg Algorithm
		q   *query.Q
	}{
		{AlgChain, paper.SimpleFDChain(4, 128)},
		{AlgSM, fig4},
		{AlgCSMA, fig9},
	} {
		t.Run(string(tc.alg), func(t *testing.T) {
			plan := planOf(t, tc.q)
			if plan.Algorithm != tc.alg {
				t.Fatalf("precondition: expected %s plan, got %s", tc.alg, plan.Algorithm)
			}
			empty := make([]*rel.Relation, len(tc.q.Rels))
			for j, r := range tc.q.Rels {
				empty[j] = rel.New(r.Name, r.Attrs...)
			}
			out, _, err := runBuffered(context.Background(), tc.q.WithFreshRels(empty), plan, &memGauge{})
			if err != nil {
				t.Fatal(err)
			}
			if out.Len() != 0 {
				t.Fatalf("empty partition produced %d rows", out.Len())
			}
		})
	}
}

func TestParallelPlannerSMMatchesSequential(t *testing.T) {
	// Fig. 4: the planner picks SM on the full instance. An auto run's
	// attempt fits, so it runs generic join; an SM run's partitions run that
	// plan's proof and LLP solution at their own, smaller sizes. Both merged
	// results must stay byte-identical to the sequential one.
	q, _ := paper.Fig4Instance(125)
	if alg := planOf(t, q).Algorithm; alg != AlgSM {
		t.Fatalf("precondition: expected SM plan, got %s", alg)
	}
	seq, _ := mustRun(t, q, &Options{Workers: 1})
	for _, tc := range []struct{ req, ran Algorithm }{{AlgAuto, AlgGenericJoin}, {AlgSM, AlgSM}} {
		par, stPar := mustRun(t, q, &Options{Algorithm: tc.req, Workers: 4, MinParallelRows: 1})
		if stPar.Workers != 4 || stPar.Ran != tc.ran {
			t.Fatalf("%s: ran %s on %d workers, want %s on 4", tc.req, stPar.Ran, stPar.Workers, tc.ran)
		}
		identical(t, seq, par)
	}
}

func TestChoosePartitionVar(t *testing.T) {
	// Chain plans partition on the chain's first climbing step; other plans
	// partition on the most-covered variable; a query whose only relations
	// are arity-0 has nothing to partition.
	q := paper.SimpleFDChain(4, 128)
	p, _ := Prepare(q)
	b, _ := p.Bind(nil)
	plan := b.Plan()
	if plan.Algorithm != AlgChain {
		t.Fatalf("precondition: chain plan, got %s", plan.Algorithm)
	}
	if v := choosePartitionVar(q, plan); v < 0 {
		t.Fatal("chain plan found no partition variable")
	}

	tri := paper.TriangleProduct(8)
	generic := &Plan{Algorithm: AlgGenericJoin}
	if v := choosePartitionVar(tri, generic); v < 0 {
		t.Fatal("triangle found no partition variable")
	}

	empty := query.New()
	empty.AddRel(rel.New("E"))
	if v := choosePartitionVar(empty, generic); v != -1 {
		t.Fatalf("nothing is partitionable in an arity-0 query, got %d", v)
	}
}

// --- satellite: plan stats must be deterministic and stable ---

// TestPlanStatsDeterministic asserts that the recorded plan (algorithm,
// predicted bound, rationale) is identical across repeated Bind/Run on the
// same shape and across Runs on the same Bound, and that a fresh Prepare of
// an identical query plans what the Bound's planner chose.
func TestPlanStatsDeterministic(t *testing.T) {
	shapes := []struct {
		name  string
		build func() *query.Q
	}{
		{"chain", func() *query.Q { return paper.SimpleFDChain(4, 256) }},
		{"csma", func() *query.Q { return paper.DegreeTriangle(512, 2) }},
		{"generic", func() *query.Q { return paper.TriangleProduct(16) }},
		{"sm", func() *query.Q { q, _ := paper.Fig4Instance(125); return q }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			q := sh.build()
			p, err := Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			var ref *Stats
			var b *Bound
			for rep := 0; rep < 3; rep++ {
				b, err = p.Bind(q.Rels)
				if err != nil {
					t.Fatal(err)
				}
				for run := 0; run < 2; run++ {
					_, st, err := b.Run(context.Background(), &Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = st
						if st.Plan.Reason == "" {
							t.Fatal("plan rationale not recorded")
						}
						continue
					}
					if st.Plan.Algorithm != ref.Plan.Algorithm ||
						st.Plan.LogBound != ref.Plan.LogBound ||
						st.Plan.Reason != ref.Plan.Reason {
						t.Fatalf("plan drifted across Bind/Run (rep %d, run %d): %+v vs %+v",
							rep, run, st.Plan, ref.Plan)
					}
				}
			}
			// A fresh Prepare of an identical query must plan identically.
			q2 := sh.build()
			p2, err := Prepare(q2)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := p2.Bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			pl, pl2 := b.Plan(), b2.Plan()
			if pl2.Algorithm != pl.Algorithm || pl2.LogBound != pl.LogBound ||
				pl2.Reason != pl.Reason {
				t.Fatalf("fresh prepare planned differently: %+v vs %+v", pl2, pl)
			}
		})
	}
}
