package lp_test

import (
	"testing"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/smalg"
)

// maxCatalogLattice bounds the lattices whose LLP-sized programs the
// reference is asked to solve: it is cubic in a tableau of |L|² rows, and
// the FD-free motifs of the catalog have 2^k closed sets that no planner
// rule ever turns into an LP.
const maxCatalogLattice = 40

// boundLPs drives every bound layer that builds a linear program on q:
// fractional edge cover (AGM, co-atomic, one per good chain), vertex
// packing, the LLP, its explicit dual, the output-inequality LP of the SM
// proof search, and the CLLP.
func boundLPs(q *query.Q) {
	bounds.AGM(q)
	bounds.VertexPacking(q)
	if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 {
		return
	}
	if q.Lattice().Size() > maxCatalogLattice {
		return
	}
	bounds.CoatomicCover(q)
	bounds.BestChainBound(q, 64)
	llp := bounds.LLP(q)
	bounds.SolveDualLLP(llp.Lat, llp.Inputs, q.LogSizes())
	smalg.FindProofAuto(q, llp)
	bounds.OutputInequalityHolds(llp.Lat, llp.Inputs, llp.W)
	bounds.CLLPFromQuery(q)
}

// TestCatalogLPsMatchReference diffs the kernel against the retained
// big.Rat solver on every LP the small-tier scenario catalog (which
// includes the paper's instances) and the benchmark's two extra shapes
// actually produce.
func TestCatalogLPsMatchReference(t *testing.T) {
	type named struct {
		name string
		q    *query.Q
	}
	var qs []named
	for _, in := range scenario.Instances(scenario.TierSmall) {
		qs = append(qs, named{in.Name, in.Build()})
	}
	qs = append(qs,
		named{"paper/simple-fd-chain-6@32", paper.SimpleFDChain(6, 32)},
		named{"paper/simple-fd-chain-4@100", paper.SimpleFDChain(4, 100)},
	)
	total, wide := 0, 0
	for _, nq := range qs {
		problems := lp.CollectSolves(func() { boundLPs(nq.q) })
		if len(problems) < 2 {
			t.Errorf("%s: %d LPs collected, want at least edge cover and vertex packing", nq.name, len(problems))
		}
		for i, p := range problems {
			if d := lp.DiffSolve(p); d != "" {
				t.Errorf("%s: LP %d of %d (%d vars, %d rows): %s", nq.name, i, len(problems), p.NumVars, len(p.Cons), d)
			}
			for _, c := range p.Cons {
				if !c.RHS.IsInt() {
					wide++
					break
				}
			}
		}
		total += len(problems)
	}
	t.Logf("%d LPs from %d instances, %d with a non-integer (log-size) right-hand side", total, len(qs), wide)
	if wide == 0 {
		t.Error("no catalog LP had a wide right-hand side: the big.Rat side of the kernel went untested")
	}
}
