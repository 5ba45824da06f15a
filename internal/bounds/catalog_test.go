package bounds_test

import (
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lattice"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/scenario"
)

// TestCatalogBoundPremises checks, in exact arithmetic on every FD / degree
// shape of the small-tier catalog, the facts the planner's LLP floor stands
// on:
//   - no good candidate chain (both constructions, and every maximal chain
//     of a lattice of ≤ 64 elements) has a bound below the LLP optimum: each
//     chain bound proves an inequality every lattice polymatroid satisfies
//     (Thm 5.3);
//   - without degree bounds the CLLP is the LLP (Prop. 5.32);
//   - on a distributive lattice of ≤ 64 elements the best chain bound is the
//     LLP (Cor. 5.17);
//
// and that the search cut at the floor returns the full search's chain.
func TestCatalogBoundPremises(t *testing.T) {
	type named struct {
		name string
		q    *query.Q
	}
	var qs []named
	for _, in := range scenario.Instances(scenario.TierSmall) {
		q := in.Build()
		if len(q.FDs.FDs) > 0 || len(q.DegreeBounds) > 0 {
			qs = append(qs, named{in.Name, q})
		}
	}
	qs = append(qs,
		named{"paper/simple-fd-chain-4@16", paper.SimpleFDChain(4, 16)},
		named{"paper/simple-fd-chain-6@32", paper.SimpleFDChain(6, 32)},
	)
	distributive := 0
	for _, nq := range qs {
		q := nq.q
		l := q.Lattice()
		inputs := q.InputElems()
		floor := bounds.LLP(q).LogBound

		candidates := []lattice.Chain{l.GoodChainJoinIrreducibles(inputs), l.GoodChainMeetIrreducibles(inputs)}
		if l.Size() <= 64 {
			candidates = append(candidates, slices.Collect(l.EachMaximalChain)...)
		}
		for _, c := range candidates {
			if !l.IsChain(c) || !l.GoodForAll(c, inputs) {
				continue
			}
			if r := bounds.ChainBound(q, c); r.Finite && r.LogBound.Cmp(floor) < 0 {
				t.Errorf("%s: chain %v bound %v is below the LLP %v", nq.name, c, r.LogBound, floor)
			}
		}

		if len(q.DegreeBounds) == 0 {
			if cllp := bounds.CLLPFromQuery(q); cllp.LogBound == nil || cllp.LogBound.Cmp(floor) != 0 {
				t.Errorf("%s: degree-free CLLP %v != LLP %v", nq.name, cllp.LogBound, floor)
			}
		}

		full := bounds.BestChainBound(q, 64)
		if strings.HasPrefix(nq.name, "paper/simple-fd-chain") && !l.IsDistributive() {
			t.Errorf("%s: simple FDs, yet the lattice is not distributive", nq.name)
		}
		if l.Size() <= 64 && l.IsDistributive() {
			distributive++
			if !full.Finite || full.LogBound.Cmp(floor) != 0 {
				t.Errorf("%s: distributive lattice, best chain bound %v != LLP %v", nq.name, full.LogBound, floor)
			}
		}
		cut := bounds.BestChainBoundWithFloor(q, 64, func() *big.Rat { return floor })
		if cut.Finite != full.Finite || !slices.Equal(cut.Chain, full.Chain) ||
			(full.Finite && cut.LogBound.Cmp(full.LogBound) != 0) {
			t.Errorf("%s: search cut at the floor found %v (2^%v), the full search %v (2^%v)",
				nq.name, cut.Chain, cut.LogBound, full.Chain, full.LogBound)
		}
	}
	if distributive == 0 {
		t.Error("no distributive lattice in the catalog: Cor. 5.17 went unchecked")
	}
	t.Logf("%d FD / degree shapes, %d with a distributive lattice of ≤ 64 elements", len(qs), distributive)
}

// TestLLPRowGenerationMatchesAllPairs solves the LLP of every FD / degree
// shape of the full-tier catalog with |L| ≤ 40 both ways, by row generation
// and with every sub-modularity row, and requires the same optimum and the
// same dual weights, which prove the bound: their output inequality holds and
// Σ_j w_j·n_j = h*(1̂). The primal h* may differ where the LP is degenerate;
// hDiffers lists the shapes where it does. Both vertices are optimal, and no
// plan changes: the SM proof search finds no good proof on Fig. 9 from either.
func TestLLPRowGenerationMatchesAllPairs(t *testing.T) {
	const maxLattice = 40
	hDiffers := []string{"paper/fig9@n=16,seed=0", "paper/fig9@n=64,seed=0"}
	var differs []string
	shapes := 0
	for _, in := range scenario.Instances(scenario.TierFull) {
		q := in.Build()
		if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 || q.Lattice().Size() > maxLattice {
			continue
		}
		shapes++
		got, want := bounds.LLP(q), bounds.AllPairsLLP(q)
		if got.LogBound.Cmp(want.LogBound) != 0 {
			t.Errorf("%s: row generation h*(1̂) = %v, all pairs %v", in.Name, got.LogBound, want.LogBound)
		}
		if !ratsEqual(got.W, want.W) {
			t.Errorf("%s: row generation w = %v, all pairs %v", in.Name, got.W, want.W)
		}
		if !slices.Equal(got.Pairs, want.Pairs) {
			t.Errorf("%s: row generation lists pairs %v, all pairs %v", in.Name, got.Pairs, want.Pairs)
		}
		if !bounds.OutputInequalityHolds(got.Lat, got.Inputs, got.W) {
			t.Errorf("%s: w = %v proves no output inequality", in.Name, got.W)
		}
		sum := new(big.Rat)
		for j, n := range q.LogSizes() {
			sum.Add(sum, new(big.Rat).Mul(got.W[j], n))
		}
		if sum.Cmp(got.LogBound) != 0 {
			t.Errorf("%s: Σ w_j·n_j = %v, h*(1̂) = %v", in.Name, sum, got.LogBound)
		}
		if !ratsEqual(got.H, want.H) {
			differs = append(differs, in.Name)
		}
	}
	if !slices.Equal(differs, hDiffers) {
		t.Errorf("h* differs from the all-pairs vertex on %v, want exactly %v", differs, hDiffers)
	}
	t.Logf("%d FD / degree shapes, h* differs on %v", shapes, differs)
}

func ratsEqual(a, b []*big.Rat) bool {
	return slices.EqualFunc(a, b, func(x, y *big.Rat) bool { return x.Cmp(y) == 0 })
}

// BenchmarkLLP solves the LLP of every FD / degree shape of the small-tier
// catalog once per op, by row generation and with every row from the start.
func BenchmarkLLP(b *testing.B) {
	var qs []*query.Q
	for _, in := range scenario.Instances(scenario.TierSmall) {
		if q := in.Build(); len(q.FDs.FDs) > 0 || len(q.DegreeBounds) > 0 {
			q.Lattice()
			qs = append(qs, q)
		}
	}
	for _, bc := range []struct {
		name  string
		solve func(*query.Q) *bounds.LLPResult
	}{{"row-generation", bounds.LLP}, {"all-pairs", bounds.AllPairsLLP}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, q := range qs {
					bc.solve(q)
				}
			}
		})
	}
}
