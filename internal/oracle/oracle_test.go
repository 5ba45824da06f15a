package oracle

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
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
	// the oracle may record as a skip — on the sequential and the parallel
	// path alike.
	q, _ := paper.Fig9Instance(16)
	p, err := engine.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		_, _, errSM := b.Run(context.Background(), &engine.Options{Algorithm: engine.AlgSM, Workers: workers, MinParallelRows: 1})
		if errSM == nil {
			t.Fatalf("explicit SM on Fig9 (workers=%d) must fail", workers)
		}
		if !inapplicable(engine.AlgSM, errSM) {
			t.Fatalf("Fig9 SM error (workers=%d) should be a legitimate skip, got: %v", workers, errSM)
		}
		if inapplicable(engine.AlgCSMA, errSM) {
			t.Fatal("CSMA errors are never legitimate skips")
		}
	}
	if !inapplicable(engine.AlgChain, fmt.Errorf("part 2: %w", chainalg.ErrNoGoodChain)) {
		t.Fatal("a wrapped no-good-chain error should be a legitimate skip")
	}
	// Identity, not text: the same message from anywhere else is a failure.
	for alg, sentinel := range map[engine.Algorithm]error{
		engine.AlgSM:    smalg.ErrNoGoodProof,
		engine.AlgChain: chainalg.ErrNoGoodChain,
	} {
		if inapplicable(alg, errors.New(sentinel.Error())) {
			t.Fatalf("%s: an error that only reads like %q must not be excused", alg, sentinel)
		}
	}
}

// The shared instance setup refuses what would make every check vacuous or
// meaningless: an empty reference, and an instance that violates its FDs.
func TestReferenceRefusesEmptyAndInvalid(t *testing.T) {
	empty := query.New("x", "y")
	r := rel.New("R", 0, 1)
	r.Add(1, 2)
	s := rel.New("S", 0, 1)
	s.Add(1, 3)
	empty.AddRel(r)
	empty.AddRel(s)
	if _, err := reference(empty); err == nil || !strings.Contains(err.Error(), "reference output is empty") {
		t.Fatalf("empty reference: got %v", err)
	}

	invalid := query.New("x", "y")
	v := rel.New("R", 0, 1)
	v.Add(1, 2)
	v.Add(1, 3) // violates x -> y
	invalid.AddRel(v)
	invalid.FDs.AddGuarded(invalid.Vars("x"), invalid.Vars("y"), 0)
	if _, err := reference(invalid); err == nil || !strings.Contains(err.Error(), "instance does not validate") {
		t.Fatalf("invalid instance: got %v", err)
	}
}

// TestMatrixCellNames pins the ordered check names of every matrix on one
// instance, so no cell can be dropped in silence.
func TestMatrixCellNames(t *testing.T) {
	var in scenario.Instance
	for _, c := range scenario.Instances(scenario.TierSmall) {
		if c.Family().Name == "worst/agm-product" {
			in = c
		}
	}
	if in.Name == "" {
		t.Fatal("worst/agm-product is not in the small tier")
	}
	ctx := context.Background()
	names := func(crs []CheckResult) []string {
		var out []string
		for _, c := range crs {
			out = append(out, c.Check)
		}
		return out
	}

	std := CheckInstance(ctx, in, DefaultConfigs())
	var configs []string
	for _, c := range std.Configs {
		configs = append(configs, c.Config)
	}
	wantConfigs := []string{
		"auto/seq", "auto/par", "chain/seq", "chain/par", "sm/seq", "sm/par",
		"csma/seq", "csma/par", "generic/seq", "generic/par", "binary/seq", "binary/par",
		"auto/rebind",
	}
	// The instance has 180 output rows: LIMIT-k checks take k = 1 and 90.
	wantStreaming := []string{
		"stream/collect/seq", "stream/limit1/seq", "stream/limit90/seq", "stream/count/seq",
		"stream/collect/par", "stream/limit1/par", "stream/limit90/par", "stream/count/par",
	}
	wantMeta := []string{"row-permutation", "row-duplication", "relation-permutation", "value-renaming"}

	var wantFaults []string
	for _, site := range []string{"wcoj/trie-descent", "engine/partition-worker", "engine/morsel-queue", "engine/stream-merge", "rel/sink-push"} {
		wantFaults = append(wantFaults, "fault/"+site+"/panic", "fault/"+site+"/delay")
	}
	wantWire := []string{
		"network/collect", "network/count", "network/limit90",
		"network/error/bound", "network/error/rows",
		"chaos/clean", "chaos/latency", "chaos/chunk", "chaos/throttle",
		"chaos/rst-first-conn", "chaos/drop-upstream", "chaos/drop-mid-stream",
	}

	for _, c := range []struct {
		matrix    string
		got, want []string
	}{
		{"standard configs", configs, wantConfigs},
		{"standard streaming", names(std.Streaming), wantStreaming},
		{"standard metamorphic", names(std.Metamorphic), wantMeta},
		{"faults", names(CheckFaultInstance(ctx, in).Checks), wantFaults},
		{"wire", names(CheckWireInstance(ctx, in).Checks), wantWire},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s: checks\n %q\nwant\n %q", c.matrix, c.got, c.want)
		}
	}
}

// A scenario failing the bound would be a planner soundness bug; make sure
// the certification logic would actually catch one by feeding it a
// fabricated plan.
func TestCertifyBoundDetectsViolation(t *testing.T) {
	res := Result{Verdict: Verdict{Pass: true}}
	pl := &engine.Plan{Algorithm: engine.AlgChain, LogBound: 3.0, Reason: "test"}
	certifyBound(&res, pl, 9) // 2^3 = 8 < 9
	if res.BoundCertified || res.Pass {
		t.Fatal("bound violation not detected")
	}
	res2 := Result{Verdict: Verdict{Pass: true}}
	certifyBound(&res2, pl, 8) // exactly 2^3
	if !res2.BoundCertified || !res2.Pass {
		t.Fatalf("exact bound must certify: %+v", res2.Failures)
	}
	if res2.BoundSlack == nil || *res2.BoundSlack != 0 {
		t.Fatalf("slack should be 0, got %v", res2.BoundSlack)
	}
}
