package oracle

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/scenario"
)

// The in-test conformance sweep: every small-tier catalog instance must
// pass the full configuration matrix, the bound certification, and the
// metamorphic checks. cmd/conformance runs the same sweep standalone (and
// at the full tier for the committed evidence).
func TestSmallTierConformance(t *testing.T) {
	cfgs := DefaultConfigs()
	if len(cfgs) != 12 {
		t.Fatalf("want 6 algorithms × {seq, par} = 12 configs, got %d", len(cfgs))
	}
	for _, in := range scenario.Instances(scenario.TierSmall) {
		in := in
		t.Run(in.Name, func(t *testing.T) {
			res := CheckInstance(context.Background(), in, cfgs)
			if !res.Pass {
				t.Fatalf("conformance failures: %v", res.Failures)
			}
			if res.PlanAlgorithm == "" || res.PlanReason == "" {
				t.Fatalf("plan not recorded: %+v", res)
			}
			if !res.BoundCertified {
				t.Fatal("bound not certified")
			}
			// The matrix must actually have run: every config is pass or a
			// recorded legitimate skip.
			if len(res.Configs) != len(cfgs)+1 { // +1 for auto/rebind
				t.Fatalf("expected %d config results, got %d", len(cfgs)+1, len(res.Configs))
			}
			for _, c := range res.Configs {
				if c.Status == StatusFail {
					t.Fatalf("config %s failed: %s", c.Config, c.Detail)
				}
			}
			if len(res.Metamorphic) != 4 {
				t.Fatalf("expected 4 metamorphic checks, got %d", len(res.Metamorphic))
			}
		})
	}
}

func TestReverseRelationsRemapsGuards(t *testing.T) {
	// Colored triangle: guarded FDs all point at relation 0, which moves to
	// the end under reversal; degree-triangle moves degree-bound guards.
	q := paper.ColoredTriangle(32, 4)
	rq, err := reverseRelations(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := rq.Validate(); err != nil {
		t.Fatalf("reversed query no longer validates: %v", err)
	}
	if !rel.Equal(naive.Evaluate(rq), naive.Evaluate(q)) {
		t.Fatal("relation reversal changed the naive output")
	}

	qd := paper.DegreeTriangle(64, 4)
	rd, err := reverseRelations(qd)
	if err != nil {
		t.Fatal(err)
	}
	if err := rd.Validate(); err != nil {
		t.Fatalf("reversed degree-bound query no longer validates: %v", err)
	}
}

func TestOracleDemandsByteIdentity(t *testing.T) {
	// The oracle compares with rel.Identical, which must demand row order
	// and attribute order, not mere set equality.
	a := rel.New("A", 0, 1)
	a.Add(1, 2)
	a.Add(3, 4)
	b := rel.New("B", 0, 1)
	b.Add(1, 2)
	b.Add(3, 4)
	if !rel.Identical(a, b) {
		t.Fatal("identical relations not recognized")
	}
	c := rel.New("C", 0, 1)
	c.Add(3, 4)
	c.Add(1, 2) // same set, different order
	if rel.Identical(a, c) {
		t.Fatal("Identical must demand row order, not set equality")
	}
	d := rel.New("D", 1, 0) // different attribute order
	d.Add(1, 2)
	d.Add(3, 4)
	if rel.Identical(a, d) {
		t.Fatal("Identical must demand attribute order")
	}
}

func TestInapplicableOnlyExcusesKnownErrors(t *testing.T) {
	// Fig. 9 has no good SM proof, so explicit SMA fails with the one error
	// the oracle may record as a skip.
	q, _ := paper.Fig9Instance(16)
	p, err := engine.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, errSM := b.Run(context.Background(), &engine.Options{Algorithm: engine.AlgSM, Workers: 1})
	if errSM == nil {
		t.Fatal("explicit SM on Fig9 must fail")
	}
	if !inapplicable(engine.AlgSM, errSM) {
		t.Fatalf("Fig9 SM error should be a legitimate skip, got: %v", errSM)
	}
	if inapplicable(engine.AlgCSMA, errSM) {
		t.Fatal("CSMA errors are never legitimate skips")
	}
}

// A scenario failing the bound would be a planner soundness bug; make sure
// the certification logic would actually catch one by feeding it a
// fabricated plan.
func TestCertifyBoundDetectsViolation(t *testing.T) {
	res := Result{Pass: true}
	pl := &engine.Plan{Algorithm: engine.AlgChain, LogBound: 3.0, Reason: "test"}
	certifyBound(&res, pl, 9) // 2^3 = 8 < 9
	if res.BoundCertified || res.Pass {
		t.Fatal("bound violation not detected")
	}
	res2 := Result{Pass: true}
	certifyBound(&res2, pl, 8) // exactly 2^3
	if !res2.BoundCertified || !res2.Pass {
		t.Fatalf("exact bound must certify: %+v", res2.Failures)
	}
	if res2.BoundSlack == nil || *res2.BoundSlack != 0 {
		t.Fatalf("slack should be 0, got %v", res2.BoundSlack)
	}
}
