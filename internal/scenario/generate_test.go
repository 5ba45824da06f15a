package scenario

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/wcoj"
)

// Differential fuzzing: every algorithm must agree with the naive oracle on
// random queries with and without FDs.
func TestFuzzAllAlgorithms(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 40; trial++ {
		withFDs := trial%2 == 0
		q := RandomQuery(rng, 3+rng.Intn(2), 2+rng.Intn(2), 12, 4, withFDs)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: generated query invalid: %v", trial, err)
		}
		want := naive.Evaluate(q)

		check := func(name string, run func(rel.Sink) error) {
			t.Helper()
			out := rel.NewCollect("Q", q.AllVars().Members()...)
			if err := run(out); err != nil {
				// SMA may legitimately fail when no good proof exists.
				if name == "sma" {
					return
				}
				t.Fatalf("trial %d (%s): %v", trial, name, err)
			}
			if !rel.Equal(out.R, want) {
				t.Fatalf("trial %d (%s): got %d tuples, want %d (FDs=%v)",
					trial, name, out.R.Len(), want.Len(), withFDs)
			}
		}
		check("chain", func(s rel.Sink) error { _, err := chainalg.RunInto(ctx, q, nil, s); return err })
		check("csma", func(s rel.Sink) error { _, err := csma.RunInto(ctx, q, nil, s); return err })
		check("sma", func(s rel.Sink) error { _, err := smalg.RunInto(ctx, q, nil, nil, s); return err })
		check("generic", func(s rel.Sink) error {
			_, err := wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), s)
			return err
		})
		check("binary", func(s rel.Sink) error { _, err := wcoj.BinaryPlanInto(ctx, q, s); return err })

		// The engine's cost-based plan and its parallel partitioned
		// execution must agree with the oracle too.
		p, err := engine.Prepare(q)
		if err != nil {
			t.Fatalf("trial %d: prepare: %v", trial, err)
		}
		b, err := p.Bind(nil)
		if err != nil {
			t.Fatalf("trial %d: bind: %v", trial, err)
		}
		check("engine-auto", func(s rel.Sink) error {
			_, err := b.RunInto(ctx, &engine.Options{Workers: 1}, s)
			return err
		})
		check("engine-parallel", func(s rel.Sink) error {
			_, err := b.RunInto(ctx, &engine.Options{Workers: 3, MinParallelRows: 1}, s)
			return err
		})
	}
}

// Simple-key fuzzing: the Cor. 5.17 regime.
func TestFuzzSimpleKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q := RandomSimpleKeyQuery(rng, 3+rng.Intn(3), 10)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !q.Lattice().IsDistributive() {
			t.Fatalf("trial %d: simple keys must give a distributive lattice", trial)
		}
		want := naive.Evaluate(q)
		out := rel.NewCollect("Q", q.AllVars().Members()...)
		if _, err := chainalg.RunInto(context.Background(), q, nil, out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !rel.Equal(out.R, want) {
			t.Fatalf("trial %d: chain disagreement", trial)
		}
		out2 := rel.NewCollect("Q", q.AllVars().Members()...)
		if _, err := csma.RunInto(context.Background(), q, nil, out2); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !rel.Equal(out2.R, want) {
			t.Fatalf("trial %d: csma disagreement", trial)
		}
	}
}

func TestProductInstanceTriangle(t *testing.T) {
	// Theorem 2.1 part 2: the product instance attains the AGM bound.
	q := paper.TriangleRandom(4, 16, 1)
	pq, err := ProductInstance(q)
	if err != nil {
		t.Fatal(err)
	}
	out := naive.Evaluate(pq)
	// Every relation is a full cross product of its variables' domains
	// (Theorem 2.1 part 2), so the output is exactly Π_i |Domain(x_i)|.
	// Compute domain sizes from the instance itself.
	total := 1
	for v := 0; v < pq.K; v++ {
		seen := map[rel.Value]bool{}
		for _, r := range pq.Rels {
			c := r.Col(v)
			if c < 0 {
				continue
			}
			for _, tu := range r.Rows() {
				seen[tu[c]] = true
			}
		}
		total *= len(seen)
	}
	if out.Len() != total {
		t.Fatalf("product instance output %d != Π domains %d", out.Len(), total)
	}
}

func TestProductInstanceRejectsFDs(t *testing.T) {
	q := paper.Fig1QuasiProduct(4)
	if _, err := ProductInstance(q); err == nil {
		t.Fatal("product instances are only defined without FDs")
	}
}

func TestRandomQueryValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		q := RandomQuery(rng, 4, 3, 8, 3, i%2 == 0)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		var _ *query.Q = q
	}
}
