package oracle

import (
	"context"
	"testing"

	"repro/internal/scenario"
)

// TestFaultMatrixSmallSample runs the fault-injection oracle in-process on
// a few small-tier scenarios (the full sweep is cmd/conformance -matrix
// faults, exercised in CI): every cell must pass or be an explicit skip.
func TestFaultMatrixSmallSample(t *testing.T) {
	want := map[string]bool{
		"worst/agm-product": true,
		"motif/path":        true,
		"fd/guarded-chain":  true,
	}
	ran := 0
	for _, in := range scenario.Instances(scenario.TierSmall) {
		if !want[in.Family().Name] {
			continue
		}
		ran++
		res := CheckFaultInstance(context.Background(), in)
		if !res.Pass {
			t.Errorf("%s: fault matrix failed: %v", res.Scenario, res.Failures)
		}
		if len(res.Checks) == 0 {
			t.Errorf("%s: no fault cells ran", res.Scenario)
		}
		for _, c := range res.Checks {
			if c.Status == StatusFail {
				t.Errorf("%s: %s: %s", res.Scenario, c.Check, c.Detail)
			}
		}
	}
	if ran == 0 {
		t.Fatal("no sampled scenarios found in the small tier")
	}
}

// TestSessionFaults covers the fdq-level cache-eviction site.
func TestSessionFaults(t *testing.T) {
	res := CheckSessionFaults(context.Background())
	if !res.Pass {
		t.Fatalf("session fault harness failed: %v", res.Failures)
	}
	if len(res.Checks) != 2 {
		t.Fatalf("want 2 cells (panic, delay), got %d", len(res.Checks))
	}
	for _, c := range res.Checks {
		if c.Status != StatusPass {
			t.Errorf("%s: status %s: %s", c.Check, c.Status, c.Detail)
		}
	}
}
