package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/rel"
	"repro/internal/smalg"
)

// TestWarmWorkloadCountedWork pins the counted work of the FD executors on
// the ten instances of the benchmark's fd-warm workload (seed 1), each under
// the algorithm the planner gives it: a change that makes the executors
// faster must not make them do more (ROADMAP item 4). The chain algorithm's
// probes and visited tuples are what cmd/experiments fits E1's exponent
// from. The values are those of the commit before hashed probes and compiled
// expansions — CSMA's since its plans stopped depending on map order.
func TestWarmWorkloadCountedWork(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		fam  string
		size int
		want string
	}{
		{"paper/fig1-skew", 2048, "chain visited=6141 probes=12285 intermediate=[1024 2047 3070]"},
		{"paper/fig1-quasi", 256, "chain visited=4368 probes=4914 intermediate=[16 256 4096]"},
		{"paper/m3-mod", 64, "chain visited=4160 probes=4225 intermediate=[64 4096]"},
		{"paper/fig4", 216, "sm join=2592"},
		{"paper/colored-triangle", 1024, "sm join=4096"},
		{"paper/fig9", 64, "csma branches=3 join=1536 plan=14"},
		{"paper/degree-triangle", 2048, "csma branches=2 join=10240 plan=6"},
		{"paper/simple-fd-chain", 64, "chain visited=6038 probes=6661 intermediate=[7 7 64 586 5374]"},
		{"paper/four-cycle-key", 2048, "chain visited=8192 probes=24578 intermediate=[2048 2048 2048 2048]"},
		{"fd/dag", 1024, "chain visited=2930 probes=10648 intermediate=[527 801 801 801]"},
	} {
		b := bind(t, family(t, tc.fam, tc.size, 1))
		plan := b.Plan()
		var got string
		var err error
		switch plan.Algorithm {
		case AlgChain:
			var st *chainalg.Stats
			st, err = chainalg.RunInto(ctx, b.Query(), plan.Chain, &rel.CountSink{})
			got = fmt.Sprintf("chain visited=%d probes=%d intermediate=%v", st.TuplesVisited, st.Probes, st.Intermediate)
		case AlgSM:
			var st *smalg.Stats
			st, err = smalg.RunInto(ctx, b.Query(), plan.llp, plan.proof, &rel.CountSink{})
			got = fmt.Sprintf("sm join=%d", st.JoinTuples)
		case AlgCSMA:
			var st *csma.Stats
			st, err = csma.RunInto(ctx, b.Query(), nil, &rel.CountSink{})
			got = fmt.Sprintf("csma branches=%d join=%d plan=%d", st.Branches, st.JoinTuples, st.PlanLen)
		default:
			t.Fatalf("%s@%d is planned to %s: not an FD executor", tc.fam, tc.size, plan.Algorithm)
		}
		if err != nil {
			t.Fatalf("%s@%d: %v", tc.fam, tc.size, err)
		}
		if got != tc.want {
			t.Errorf("%s@%d: %s, want %s", tc.fam, tc.size, got, tc.want)
		}
	}
}
