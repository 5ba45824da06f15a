package lp_test

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lattice"
	"repro/internal/lp"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/varset"
)

// maxCatalogLattice bounds the lattices whose LLP-sized programs the
// reference is asked to solve: it is cubic in a tableau of |L|² rows, and
// the FD-free motifs of the catalog have 2^k closed sets that no planner
// rule ever turns into an LP.
const maxCatalogLattice = 40

// boundLPs drives every bound layer that builds a linear program on q:
// fractional edge cover (AGM, co-atomic, one per good chain), vertex
// packing, the LLP, its explicit dual (the SM proof search's second
// candidate), the output-inequality LP of the normality test, and the CLLP.
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

// refFindProof is the exhaustive SM proof search: the solver's dual weights,
// then every vertex of the co-atomic cover polytope at the LLP value whose
// output inequality holds.
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
// full-tier catalog and the paper's instances, the SM proof search (the
// solver's dual weights, then the explicit dual LLP's) and the normality
// test (which walks the cover polytope's vertices with lp.Vertices) decide
// what a search over every cover-polytope vertex decides — a good proof
// exists, the lattice is normal — and the proof search finds the same proof.
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

// randomFDShape builds a query over k variables the way
// bounds.FuzzLLPRowGeneration builds its lattices: random dependencies, then
// inputs on random closed sets of 2-64 rows, a power of two so that
// sizes tie and optimal duals are many, then one input on the closure
// of each variable still uncovered. The rows are distinct and satisfy no
// dependency: only the lattice and the sizes reach the LLP.
func randomFDShape(rng *rand.Rand, k int) *query.Q {
	names := make([]string, k)
	for v := range names {
		names[v] = string(rune('a' + v))
	}
	q := query.New(names...)
	for range rng.Intn(2 * k) {
		from, to := varset.Set(rng.Intn(1<<k)), varset.Single(rng.Intn(k))
		if !from.ContainsAll(to) {
			q.FDs.Add(from, to, -1, nil)
		}
	}
	l := lattice.New(k, q.FDs.Closure)
	addInput := func(vars varset.Set, rows int) {
		r := rel.New("R", vars.Members()...)
		for i := range rows {
			t := make([]rel.Value, len(r.Attrs))
			for c := range t {
				t[c] = rel.Value(i)
			}
			r.Add(t...)
		}
		q.AddRel(r)
	}
	covered := varset.Empty
	for range 1 + rng.Intn(k+1) {
		if e := l.Elems[rng.Intn(l.Size())]; e != varset.Empty {
			addInput(e, 2<<rng.Intn(6))
			covered = covered.Union(e)
		}
	}
	for v := range k {
		if !covered.Contains(v) {
			e := l.Elems[l.IndexOfClosure(varset.Single(v))]
			addInput(e, v+2)
			covered = covered.Union(e)
		}
	}
	return q
}

// TestDualFallbackProofsAreSound: on seeded random FD shapes whose solver
// weights have no good SM proof, every proof FindProofAuto finds in the
// explicit dual LLP is good (Def. 5.26) and tight: its copies of the inputs,
// divided by D, weigh Σ_j w_j·n_j = h*(1̂) exactly. It logs how often the
// search agrees with the exhaustive one on whether a proof exists; the
// explicit dual is one optimal dual, not all of them, so it may miss some.
func TestDualFallbackProofsAreSound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes, found, agree, exists := 0, 0, 0, 0
	for range 1500 {
		q := randomFDShape(rng, 3+rng.Intn(4))
		if q.Lattice().Size() > maxCatalogLattice {
			continue
		}
		llp := bounds.LLP(q)
		if smalg.FindProof(llp) != nil {
			continue
		}
		shapes++
		got, want := smalg.FindProofAuto(q, llp), refFindProof(q, llp)
		if (got != nil) == (want != nil) {
			agree++
		}
		if want != nil {
			exists++
		}
		if got == nil {
			continue
		}
		found++
		if !got.IsGood(llp.Lat) {
			t.Fatalf("%v: proof %v is not good", q.FDs.FDs, got)
		}
		weight, n := new(big.Rat), q.LogSizes()
		for _, j := range got.InitRel {
			weight.Add(weight, n[j])
		}
		if weight.Quo(weight, big.NewRat(int64(got.D), 1)); weight.Cmp(llp.LogBound) != 0 {
			t.Fatalf("%v: proof %v weighs %v, h*(1̂) = %v", q.FDs.FDs, got, weight, llp.LogBound)
		}
	}
	if found == 0 {
		t.Fatalf("%d shapes searched past the solver's weights, none found a proof: soundness went untested", shapes)
	}
	t.Logf("%d shapes searched past the solver's weights: %d proofs found, %d exist; %d agree with the exhaustive search", shapes, found, exists, agree)
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
