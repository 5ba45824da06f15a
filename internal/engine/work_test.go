package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/wcoj"
)

// TestWarmWorkloadCountedWork pins the counted work of the executors on the
// ten instances of the benchmark's fd-warm workload and the eight of
// wcoj-warm (seed 1), each under the algorithm the planner gives it: a change
// that makes the executors faster must not make them do more (ROADMAP item
// 4). The chain algorithm's probes and visited tuples are what
// cmd/experiments fits E1's exponent from. The values are those of the commit before hashed probes and compiled
// expansions — CSMA's since its plans stopped depending on map order, generic
// join's those of the closure-based descent the compiled one replaced, into a
// counter (which takes the last level as runs) and a per-row sink alike.
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
		{"paper/triangle-product", 32, "generic extensions=33824 lookups=33824"},
		{"worst/agm-product", 1024, "generic extensions=30783 lookups=30783"},
		{"skew/zipf-triangle", 16384, "generic extensions=60354 lookups=60354"},
		{"skew/zipf-hot", 2048, "generic extensions=37349 lookups=37349"},
		{"skew/near-product", 1024, "generic extensions=38212 lookups=38212"},
		{"motif/clique4", 1024, "generic extensions=44645 lookups=56444"},
		{"motif/cycle4", 512, "generic extensions=44848 lookups=44848"},
		{"motif/path", 256, "generic extensions=12097 lookups=1733"},
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
			st, err = smalg.RunInto(ctx, b.Query(), smalg.LLP(b.Query()), smalg.GoodProof(b.Query()), &rel.CountSink{})
			got = fmt.Sprintf("sm join=%d", st.JoinTuples)
		case AlgCSMA:
			var st *csma.Stats
			st, err = csma.RunInto(ctx, b.Query(), nil, &rel.CountSink{})
			got = fmt.Sprintf("csma branches=%d join=%d plan=%d", st.Branches, st.JoinTuples, st.PlanLen)
		case AlgGenericJoin:
			var st, perRow *wcoj.Stats
			st, err = wcoj.GenericJoinInto(ctx, b.Query(), wcoj.DefaultOrder(b.Query()), &rel.CountSink{})
			if err == nil {
				perRow, err = wcoj.GenericJoinInto(ctx, b.Query(), wcoj.DefaultOrder(b.Query()), &gaugeSink{s: &rel.CountSink{}, g: &memGauge{}})
			}
			if err == nil && *perRow != *st {
				err = fmt.Errorf("a per-row sink counted %+v, a run sink %+v", *perRow, *st)
			}
			got = fmt.Sprintf("generic extensions=%d lookups=%d", st.Extensions, st.Lookups)
		default:
			t.Fatalf("%s@%d is planned to %s", tc.fam, tc.size, plan.Algorithm)
		}
		if err != nil {
			t.Fatalf("%s@%d: %v", tc.fam, tc.size, err)
		}
		if got != tc.want {
			t.Errorf("%s@%d: %s, want %s", tc.fam, tc.size, got, tc.want)
		}
	}
}
