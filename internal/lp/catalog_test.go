package lp_test

import (
	"math/big"
	"reflect"
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

// refFindProof is the SM proof search as it ran on the exhaustive
// enumeration: the solver's dual weights, then every vertex of the co-atomic
// cover polytope at the LLP value whose output inequality holds.
func refFindProof(q *query.Q, llp *bounds.LLPResult) *smalg.Proof {
	if p := smalg.FindProof(llp); p != nil {
		return p
	}
	h, _ := bounds.CoatomicHypergraph(q)
	if h.HasIsolatedVertex() {
		return nil
	}
	for _, w := range lp.RefVertices(h.CoverLP(q.LogSizes())) {
		val := new(big.Rat)
		for j, n := range q.LogSizes() {
			val.Add(val, new(big.Rat).Mul(w[j], n))
		}
		if val.Cmp(llp.LogBound) != 0 || !bounds.OutputInequalityHolds(llp.Lat, llp.Inputs, w) {
			continue
		}
		alt := *llp
		alt.W = w
		if p := smalg.FindProof(&alt); p != nil {
			return p
		}
	}
	return nil
}

// TestCoverSearchesMatchExhaustive: on every FD or degree shape of the
// full-tier catalog and the paper's instances, the SM proof search and the
// normality test, which walk cover-polytope vertices with lp.Vertices, decide
// what the exhaustive enumeration decides — a good proof exists, the lattice
// is normal — and the search finds the same proof.
func TestCoverSearchesMatchExhaustive(t *testing.T) {
	fig4, _ := paper.Fig4Instance(64)
	fig9, _ := paper.Fig9Instance(16)
	qs := map[string]*query.Q{
		"paper/fig4@64":              fig4,
		"paper/fig9@16":              fig9,
		"paper/m3@8":                 paper.M3Instance(8),
		"paper/fig1@16":              paper.Fig1QuasiProduct(16),
		"paper/colored-triangle@100": paper.ColoredTriangle(100, 3),
		"paper/simple-fd-chain-6@32": paper.SimpleFDChain(6, 32),
	}
	for _, in := range scenario.Instances(scenario.TierFull) {
		qs[in.Name] = in.Build()
	}
	proofs, searched := 0, 0
	for name, q := range qs {
		if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 || q.Lattice().Size() > maxCatalogLattice {
			continue
		}
		llp := bounds.LLP(q)
		got, want := smalg.FindProofAuto(q, llp), refFindProof(q, llp)
		if (got == nil) != (want == nil) || got != nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: proof %v, exhaustive search %v", name, got, want)
		}
		if smalg.FindProof(llp) == nil {
			searched++
			if got != nil {
				proofs++
			}
		}
		h, _ := bounds.CoatomicHypergraph(q)
		normal := true
		if !h.HasIsolatedVertex() {
			for _, w := range lp.RefVertices(h.CoverLP(q.LogSizes())) {
				normal = normal && bounds.OutputInequalityHolds(llp.Lat, llp.Inputs, w)
			}
		}
		if got := bounds.IsNormalLattice(q).Normal; got != normal {
			t.Errorf("%s: normal %v, exhaustive enumeration %v", name, got, normal)
		}
	}
	if searched == 0 || proofs == 0 {
		t.Fatalf("%d shapes searched past the solver's weights, %d of them found a proof: the comparison went untested", searched, proofs)
	}
	t.Logf("%d shapes, %d searched past the solver's weights, %d of them found a good proof", len(qs), searched, proofs)
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
