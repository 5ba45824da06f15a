package oracle

import (
	"context"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestNetworkSmallTier runs the wire matrix over the whole small tier:
// every scenario either passes byte-identically across a real socket, both
// directly and behind every chaos schedule, or is a recorded
// unnamed-function skip — the same matrix CI drives through
// cmd/conformance -matrix wire. The run-level handshake record closes it.
func TestNetworkSmallTier(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server per scenario")
	}
	passes, skips := 0, 0
	for _, in := range scenario.Instances(scenario.TierSmall) {
		res := CheckWireInstance(context.Background(), in)
		if !res.Pass {
			t.Errorf("%s: %v", in.Name, res.Failures)
			continue
		}
		if res.Skipped != "" {
			if !strings.Contains(res.Skipped, "unnamed function") {
				t.Errorf("%s: unexpected skip reason %q", in.Name, res.Skipped)
			}
			skips++
			continue
		}
		if len(res.Checks) == 0 {
			t.Errorf("%s: passed with no checks", in.Name)
		}
		passes++
	}
	if passes == 0 {
		t.Fatal("no scenario ran across the wire")
	}
	// The catalog's programmatic-UDF families must be skips, not silent
	// passes: only named builtins cross the wire.
	if skips == 0 {
		t.Fatal("no unnamed-function scenario was recorded as a skip")
	}
	hs := CheckHandshake(context.Background())
	if !hs.Pass || len(hs.Checks) != 1 || hs.Checks[0].Status != StatusPass {
		t.Errorf("handshake record: %+v", hs)
	}
	t.Logf("wire tier: %d passed, %d skipped", passes, skips)
}
