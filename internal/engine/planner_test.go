package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/varset"
)

// referencePlan is the FD-aware decision table made from a full search: every
// candidate chain, then the LLP and a proof search where it beats the chain,
// then the CLLP, each solved afresh. planFDAware must make the same plan while
// skipping what the LLP floor rules out.
func referencePlan(q *query.Q) *Plan {
	const eps = 1e-9
	best := &Plan{Algorithm: AlgGenericJoin, LogBound: math.Inf(1),
		Reason: "no finite FD-aware bound: falling back to Generic-Join"}
	if cb := bounds.BestChainBound(q, 64); cb.Finite {
		lb, _ := cb.LogBound.Float64()
		best = &Plan{
			Algorithm: AlgChain, LogBound: lb, Chain: cb.Chain,
			Reason: fmt.Sprintf("finite good-chain bound 2^%.2f (chain length %d)", lb, len(cb.Chain)),
		}
	}
	llp := bounds.LLP(q)
	logLLP, _ := llp.LogBound.Float64()
	if logLLP < best.LogBound-eps && smalg.FindProofAuto(q, llp) != nil {
		best = &Plan{
			Algorithm: AlgSM, LogBound: logLLP,
			Reason: fmt.Sprintf("good SM proof tight for LLP bound 2^%.2f < chain bound", logLLP),
		}
	}
	if cllp := bounds.CLLPFromQuery(q); cllp.LogBound != nil {
		logCLLP, _ := cllp.LogBound.Float64()
		if logCLLP < best.LogBound-eps {
			best = &Plan{
				Algorithm: AlgCSMA, LogBound: logCLLP,
				Reason: fmt.Sprintf("CLLP bound 2^%.2f beats chain/SM candidates (degree bounds or no good proof)", logCLLP),
			}
		}
	}
	return best
}

// samePlan reports how got differs from want, or "" when it does not.
func samePlan(got, want *Plan) string {
	if got.Algorithm != want.Algorithm || got.LogBound != want.LogBound ||
		got.Reason != want.Reason || !slices.Equal(got.Chain, want.Chain) {
		return fmt.Sprintf("planned %s 2^%v chain %v (%s), the full search %s 2^%v chain %v (%s)",
			got.Algorithm, got.LogBound, got.Chain, got.Reason,
			want.Algorithm, want.LogBound, want.Chain, want.Reason)
	}
	return ""
}

// Planning from the LLP floor makes the full search's plan on every FD or
// degree shape of the full-tier catalog and the benchmark's six-variable
// simple-FD chain, each planned cold.
func TestPlanFromTheFloorMatchesFullSearch(t *testing.T) {
	qs := map[string]func() *query.Q{
		"paper/simple-fd-chain-6@32": func() *query.Q { return paper.SimpleFDChain(6, 32) },
	}
	for _, in := range scenario.Instances(scenario.TierFull) {
		qs[in.Name] = in.Build
	}
	checked := 0
	for name, build := range qs {
		want, q := build(), build()
		if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 {
			continue
		}
		checked++
		if d := samePlan(planFDAware(q), referencePlan(want)); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	if checked == 0 {
		t.Fatal("no FD or degree shape in the catalog")
	}
	t.Logf("%d FD / degree instances planned alike", checked)
}

// The admission record's bound is the plan's, bit for bit, on every binding
// of both catalog tiers, each admitted cold; a degree-free FD shape is
// admitted on the LLP alone, with no machine chosen.
func TestAdmissionIsThePlansBound(t *testing.T) {
	llpOnly, n := 0, 0
	for _, tier := range []scenario.Tier{scenario.TierSmall, scenario.TierFull} {
		for _, in := range scenario.Instances(tier) {
			b := bind(t, in.Build())
			adm := b.Admission()
			pl := b.Plan()
			if math.Float64bits(adm.LogBound) != math.Float64bits(pl.LogBound) {
				t.Errorf("%s: admitted on 2^%v, planned %s on 2^%v", in.Name, adm.LogBound, pl.Algorithm, pl.LogBound)
			}
			q := b.Query()
			deferred := len(q.FDs.FDs) > 0 && len(q.DegreeBounds) == 0
			switch {
			case deferred && adm.Algorithm != AlgAuto:
				t.Errorf("%s: a degree-free FD shape admitted on %s, want the LLP alone", in.Name, adm.Algorithm)
			case !deferred && adm != pl:
				t.Errorf("%s: admitted on %+v, not on its plan %+v", in.Name, adm, pl)
			case deferred:
				llpOnly++
			}
			n++
		}
	}
	if llpOnly < 43 {
		t.Fatalf("%d of %d bindings admitted on the LLP alone, want at least 43", llpOnly, n)
	}
	t.Logf("%d of %d bindings admitted on the LLP alone", llpOnly, n)
}

// The smallest paper instances of the catalog are certified by their
// FD-aware bound, whatever their size, and on these the bound is exact:
// log2 of the output size, with no slack. Fig. 9 and Fig. 5 derive variables
// from FDs alone, so their FD-blind AGM bound is infinite.
func TestSmallFDInstancesAreTightlyCertified(t *testing.T) {
	want := map[string]float64{
		"paper/fig1-quasi@n=16,seed=0": 6,
		"paper/fig9@n=16,seed=0":       6,
		"paper/fig5@n=16,seed=0":       8,
	}
	for _, in := range scenario.Instances(scenario.TierFull) {
		logOut, ok := want[in.Name]
		if !ok {
			continue
		}
		delete(want, in.Name)
		q := in.Build()
		if got := math.Log2(float64(naive.Evaluate(q).Len())); got != logOut {
			t.Fatalf("%s: log2 |out| = %v, want %v", in.Name, got, logOut)
		}
		if pl := bind(t, q).Plan(); pl.LogBound != logOut {
			t.Errorf("%s: planned %s on 2^%v, want the tight 2^%v", in.Name, pl.Algorithm, pl.LogBound, logOut)
		}
	}
	for name := range want {
		t.Errorf("%s: not in the full-tier catalog", name)
	}
}

// wideFig9 is Fig. 9 with k more inputs Y_i(y_i) of 2^10 rows each: every
// {y_i} is closed, and so is every Fig. 9 element, but y_i with any other
// variable determines all of them. The lattice is Fig. 9's with k atoms
// that are also co-atoms, so the co-atomic hypergraph has 3+k nodes and 3+k
// edges. The Y_i are too large to enter an optimal cover, so the LLP optimum
// is Fig. 9's 3n/2 and, as on Fig. 9, no optimal dual weights have a good SM
// proof.
func wideFig9(k int) *query.Q {
	fig9 := paper.Fig9()
	names := slices.Clone(fig9.Names)
	for i := range k {
		names = append(names, fmt.Sprintf("y%d", i))
	}
	q := query.New(names...)
	all := varset.Universe(len(names))
	for _, f := range fig9.FDs.FDs {
		q.FDs.Add(f.From, f.To, -1, nil) // planning reads the lattice only
	}
	q.FDs.Add(varset.Universe(9), all, -1, nil) // Fig. 9's 1̂ is no longer closed
	for y := 9; y < len(names); y++ {
		for v := range len(names) {
			if v != y {
				q.FDs.Add(varset.Of(y, v), all, -1, nil)
			}
		}
	}
	for _, attrs := range [][]int{{0, 1, 6}, {0, 2, 7}, {1, 2, 8}} {
		r := rel.New("T"+names[attrs[2]], attrs...)
		for v := range 16 {
			r.Add(rel.Value(v), rel.Value(v), rel.Value(v))
		}
		q.AddRel(r)
	}
	for i := range k {
		r := rel.New("Y"+fmt.Sprint(i), 9+i)
		for v := range 1 << 10 {
			r.Add(rel.Value(v))
		}
		q.AddRel(r)
	}
	return q
}

// A shape with sixteen inputs whose solver dual has no good SM proof plans
// within seconds: the proof search walks the few vertices of the cover
// polytope's optimal face, not the C(32, 16) ≈ 6·10⁸ square systems of the
// polytope's tight-row choices, and the planner falls back to CSMA as on
// Fig. 9.
func TestPlanWideFig9SearchesTheOptimalFace(t *testing.T) {
	q := wideFig9(13)
	if n, co, size := len(q.Rels), len(q.Lattice().Coatoms()), q.Lattice().Size(); n != 16 || co != 16 || size != 31 {
		t.Fatalf("%d inputs, %d co-atoms and %d closed sets, want 16, 16 and 18+13", n, co, size)
	}
	if smalg.FindProof(smalg.LLP(q)) != nil {
		t.Fatal("the solver's own dual weights have a good proof: the search is never reached")
	}
	done := make(chan *Plan, 1)
	go func() { done <- planFDAware(q) }()
	select {
	case p := <-done:
		if p.Algorithm != AlgCSMA {
			t.Fatalf("planned %s (%s), want csma", p.Algorithm, p.Reason)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("planning took more than 20 s")
	}
}

func TestAnalyzeFig1(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	a := Analyze(q)
	n := math.Log2(16)
	if a.LatticeSize != 12 || a.Distributive || !a.Normal {
		t.Fatalf("Fig1 classification wrong: %+v", a)
	}
	if math.Abs(a.LogLLP-1.5*n) > 1e-6 || math.Abs(a.LogChain-1.5*n) > 1e-6 {
		t.Fatalf("Fig1 bounds wrong: LLP %v chain %v", a.LogLLP, a.LogChain)
	}
	if math.Abs(a.LogAGM-2*n) > 1e-6 {
		t.Fatalf("Fig1 AGM %v, want %v", a.LogAGM, 2*n)
	}
	if !a.SMProofExists {
		t.Fatal("Fig1 should have a good SM proof")
	}
}

func TestAnalyzeM3(t *testing.T) {
	q := paper.M3Instance(8)
	a := Analyze(q)
	if a.Normal || !a.HasM3Top || a.Distributive || !a.Modular {
		t.Fatalf("M3 classification wrong: %+v", a)
	}
	n := math.Log2(8)
	if math.Abs(a.LogLLP-2*n) > 1e-6 {
		t.Fatalf("M3 LLP %v, want %v", a.LogLLP, 2*n)
	}
	if math.Abs(a.LogCoatomic-1.5*n) > 1e-6 {
		t.Fatalf("M3 coatomic %v, want %v", a.LogCoatomic, 1.5*n)
	}
}

func TestAnalyzeFig9(t *testing.T) {
	q, _ := paper.Fig9Instance(4)
	a := Analyze(q)
	if a.SMProofExists {
		t.Fatal("Fig9 must have no good SM proof (Example 5.31)")
	}
	if !a.Normal {
		t.Fatal("Fig9 lattice is normal")
	}
}
