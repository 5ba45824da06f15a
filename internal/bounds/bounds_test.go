package bounds

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/lattice"
	"repro/internal/paper"
	"repro/internal/query"
)

// approxLog compares a rational log-bound against an expected float within a
// small tolerance (log sizes come from float64 log2).
func approxLog(t *testing.T, got *big.Rat, want float64, what string) {
	t.Helper()
	f, _ := got.Float64()
	if math.Abs(f-want) > 1e-6 {
		t.Fatalf("%s: log bound = %v, want %v", what, f, want)
	}
}

func TestTriangleAGM(t *testing.T) {
	// Eq. 4 with |R|=|S|=|T|=N=16: AGM = N^{3/2}, log = 6.
	q := paper.TriangleProduct(4) // each relation 16 tuples
	r := AGM(q)
	if !r.Finite {
		t.Fatal("triangle AGM must be finite")
	}
	approxLog(t, r.LogBound, 1.5*4, "AGM(triangle)")
	// All three weights are 1/2 at the fractional vertex.
	for _, w := range r.Weights {
		if w.Cmp(big.NewRat(1, 2)) != 0 {
			t.Fatalf("weight %v, want 1/2", w)
		}
	}
}

func TestTriangleAGMAsymmetric(t *testing.T) {
	// Eq. 4: AGM = min(√(N_R·N_S·N_T), N_R·N_S, N_R·N_T, N_S·N_T).
	// Make T tiny: N_R = N_S = 16, N_T = 1 → bound = N_T·N_R = 16... the
	// min is over edge cover vertices: (1,0,1): N_R·N_T = 16, (0,1,1):
	// N_S·N_T = 16, (1/2,1/2,1/2): √(16·16·1) = 16. All 16 → log 4.
	q := paper.Triangle()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			q.Rels[0].Add(paper.Value(i), paper.Value(j))
			q.Rels[1].Add(paper.Value(i), paper.Value(j))
		}
	}
	q.Rels[2].Add(0, 0)
	r := AGM(q)
	approxLog(t, r.LogBound, 4, "asymmetric AGM")
}

func TestTrianglePackingDuality(t *testing.T) {
	q := paper.TriangleProduct(4)
	cover := AGM(q)
	pack := VertexPacking(q)
	if pack == nil {
		t.Fatal("packing should exist")
	}
	if cover.LogBound.Cmp(pack.Value) != 0 {
		t.Fatalf("strong duality fails: cover %v vs packing %v", cover.LogBound, pack.Value)
	}
}

func TestFig1Bounds(t *testing.T) {
	// Paper Sec. 1.1 / Example 5.5 with |R|=|S|=|T|=N:
	// AGM(Q) = AGM(Q⁺) = N², GLVV = LLP = N^{3/2}.
	q := paper.Fig1QuasiProduct(16) // N = 16 per relation
	n := math.Log2(16)
	agm := AGM(q)
	if agm.Finite {
		// u appears in T, x in R: plain AGM needs w_R ≥ 1 (x only in R)
		// and w_T ≥ 1 (u only in T): bound N².
		approxLog(t, agm.LogBound, 2*n, "AGM(Fig1)")
	} else {
		t.Fatal("AGM(Fig1) should be finite (all vars covered)")
	}
	agmp := AGMClosure(q)
	approxLog(t, agmp.LogBound, 2*n, "AGM(Fig1⁺)")
	llp := LLP(q)
	approxLog(t, llp.LogBound, 1.5*n, "LLP(Fig1)")
}

func TestFig1LLPValuesMatchFigure(t *testing.T) {
	// Fig. 1 labels the optimal polymatroid: h(singleton) = 1/2,
	// h(pairs xy, xu, zu, yz) = 1, h(xyu), h(xzu) = 1... the figure shows
	// per-element values (in units of n): check h*(1̂) = 3/2·n and the dual
	// weights are (1/2, 1/2, 1/2).
	q := paper.Fig1QuasiProduct(16)
	n := math.Log2(16)
	llp := LLP(q)
	approxLog(t, llp.LogBound, 1.5*n, "h*(1̂)")
	for j, w := range llp.W {
		if w.Cmp(big.NewRat(1, 2)) != 0 {
			t.Fatalf("dual weight %d = %v, want 1/2", j, w)
		}
	}
	// Strong duality: Σ w_j n_j = h*(1̂).
	sum := new(big.Rat)
	for j, w := range llp.W {
		sum.Add(sum, new(big.Rat).Mul(w, q.LogSizes()[j]))
	}
	if sum.Cmp(llp.LogBound) != 0 {
		t.Fatalf("strong duality fails: %v vs %v", sum, llp.LogBound)
	}
	// The optimal dual weights constitute a valid output inequality
	// (Lemma 3.9).
	if !OutputInequalityHolds(llp.Lat, llp.Inputs, llp.W) {
		t.Fatal("optimal dual weights must form a valid output inequality")
	}
}

func TestM3Bounds(t *testing.T) {
	// Example 5.12 / Fig. 3: |R|=|S|=|T|=N. GLVV = LLP = N² (tight on the
	// mod-N instance), while the co-atomic cover gives only N^{3/2} — and
	// that inequality FAILS on M3, which is exactly non-normality.
	q := paper.M3Instance(16)
	n := math.Log2(16)
	llp := LLP(q)
	approxLog(t, llp.LogBound, 2*n, "LLP(M3)")
	co := CoatomicCover(q)
	approxLog(t, co.LogBound, 1.5*n, "coatomic cover (M3)")
	// The (1/2,1/2,1/2) co-atomic cover inequality does not hold over the
	// submodular cone.
	half := big.NewRat(1, 2)
	if OutputInequalityHolds(llp.Lat, llp.Inputs, []*big.Rat{half, half, half}) {
		t.Fatal("h(x)+h(y)+h(z) ≥ 2h(1̂) must FAIL on M3 (Sec. 4.3)")
	}
	res := IsNormalLattice(q)
	if res.Normal {
		t.Fatal("M3 must not be normal")
	}
}

func TestFig1Normal(t *testing.T) {
	// Sec. 4.3: the Fig. 1 lattice is normal w.r.t. inputs xy, yz, zu.
	q := paper.Fig1QuasiProduct(4)
	if !IsNormalLattice(q).Normal {
		t.Fatal("Fig. 1 lattice must be normal w.r.t. its inputs")
	}
	// And the coatomic cover bound equals the LLP bound on normal lattices.
	llp := LLP(q)
	co := CoatomicCover(q)
	if llp.LogBound.Cmp(co.LogBound) != 0 {
		t.Fatalf("normal lattice: coatomic %v != LLP %v", co.LogBound, llp.LogBound)
	}
}

func TestFig4Bounds(t *testing.T) {
	// Examples 5.18/5.20: chain bound N^{3/2} on every chain; LLP = SM =
	// coatomic = N^{4/3}; the lattice is normal and distributive? (It is
	// normal; Corollary 5.23 covers distributive, but this one is normal
	// and not distributive.)
	q, m := paper.Fig4Instance(64) // m = 4, relations m³ = 64
	nRel := float64(m * m * m)
	n := math.Log2(nRel)
	llp := LLP(q)
	approxLog(t, llp.LogBound, 4.0/3.0*n, "LLP(Fig4)")
	co := CoatomicCover(q)
	approxLog(t, co.LogBound, 4.0/3.0*n, "coatomic (Fig4)")
	best := BestChainBound(q, 40)
	if !best.Finite {
		t.Fatal("chain bound must be finite")
	}
	approxLog(t, best.LogBound, 1.5*n, "best chain bound (Fig4)")
	if !IsNormalLattice(q).Normal {
		t.Fatal("Fig. 4 lattice must be normal")
	}
}

func TestFig9Bounds(t *testing.T) {
	// Example 5.31 continued: OPT = 3n/2.
	q, m := paper.Fig9Instance(16) // m=4, |T(M)| = 16
	n := math.Log2(float64(m * m))
	llp := LLP(q)
	approxLog(t, llp.LogBound, 1.5*n, "LLP(Fig9)")
	cllp := CLLPFromQuery(q)
	if cllp.LogBound == nil {
		t.Fatal("CLLP must be bounded")
	}
	approxLog(t, cllp.LogBound, 1.5*n, "CLLP(Fig9)")
}

func TestChainBoundFig1(t *testing.T) {
	// Example 5.5: chain 0̂ ≺ y ≺ yz ≺ 1̂ gives N^{3/2}; Example 5.8: the
	// chain 0̂ ≺ x ≺ xu ≺ xyu ≺ 1̂ gives only N².
	q := paper.Fig1QuasiProduct(16)
	n := math.Log2(16)
	l := q.Lattice()
	good := lattice.Chain{l.Bottom, l.Index(q.Vars("y")), l.Index(q.Vars("y", "z")), l.Top}
	r := ChainBound(q, good)
	if !r.Good || !r.Finite {
		t.Fatal("chain 0̂≺y≺yz≺1̂ must be good and finite")
	}
	approxLog(t, r.LogBound, 1.5*n, "chain bound (good chain)")

	bad := lattice.Chain{l.Bottom, l.Index(q.Vars("x")), l.Index(q.Vars("x", "u")),
		l.Index(q.Vars("x", "y", "u")), l.Top}
	r2 := ChainBound(q, bad)
	if !r2.Finite {
		t.Fatal("atomic-hypergraph chain should still be finite")
	}
	approxLog(t, r2.LogBound, 2*n, "chain bound (suboptimal chain)")

	best := BestChainBound(q, 40)
	approxLog(t, best.LogBound, 1.5*n, "best chain bound (Fig1)")
}

func TestChainBoundFig5(t *testing.T) {
	// Example 5.10: maximal chains have isolated vertices (infinite bound);
	// Corollary 5.9's chain gives N².
	q := paper.Fig5Instance(16)
	n := math.Log2(16)
	l := q.Lattice()
	mc := lattice.Chain{l.Bottom, l.Index(q.Vars("z")), l.Index(q.Vars("x", "z")), l.Top}
	r := ChainBound(q, mc)
	if r.Finite {
		t.Fatal("maximal chain through z must have infinite bound")
	}
	best := BestChainBound(q, 40)
	if !best.Finite {
		t.Fatal("Cor. 5.9 chain must give a finite bound")
	}
	approxLog(t, best.LogBound, 2*n, "best chain (Fig5)")
	llp := LLP(q)
	approxLog(t, llp.LogBound, 2*n, "LLP(Fig5)")
}

func TestM3ChainBoundTight(t *testing.T) {
	// Example 5.12: chain 0̂ ≺ x ≺ 1̂ gives the tight bound N² on M3.
	q := paper.M3Instance(8)
	n := math.Log2(8)
	best := BestChainBound(q, 40)
	approxLog(t, best.LogBound, 2*n, "chain bound (M3)")
}

func TestClosureBoundsFourCycle(t *testing.T) {
	// Sec. 2 "Closure": 4-cycle with key y→z. AGM = min(RT, SK) = N²;
	// AGM(Q⁺) = min(RT, SK, RK) — still N² with equal sizes, but the point
	// is Q⁺ adds the RK cover. Check weights structure instead: with
	// |S| huge, AGM(Q⁺) uses R,K and beats AGM.
	q := paper.FourCycleWithKey(16)
	// Blow up S and T so that both the RT and SK covers are expensive;
	// only the closure cover R⁺K stays cheap.
	for i := 0; i < 240; i++ {
		q.Rels[1].Add(paper.Value(1000+i), paper.Value(1000+i))
		q.Rels[2].Add(paper.Value(1000+i), paper.Value(1000+i))
	}
	agm := AGM(q)
	agmp := AGMClosure(q)
	if agmp.LogBound.Cmp(agm.LogBound) >= 0 {
		t.Fatalf("AGM(Q⁺) = %v should beat AGM = %v", agmp.LogBound, agm.LogBound)
	}
	// AGM(Q⁺) = |R|·|K| = 16·16 → log 8.
	approxLog(t, agmp.LogBound, 8, "AGM(Q⁺) 4-cycle")
}

func TestCompositeKeyClosureFails(t *testing.T) {
	// Sec. 2: R(x), S(y), T(x,y,z), xy → z with |R|=|S|=N, |T|=M≫N².
	// Q⁺ = Q and AGM(Q⁺) = M, but LLP = N².
	q := paper.CompositeKey(4, 4096)
	agmp := AGMClosure(q)
	llp := LLP(q)
	approxLog(t, agmp.LogBound, 12, "AGM(Q⁺) composite key") // log M
	approxLog(t, llp.LogBound, 4, "LLP composite key")       // 2·log N
}

func TestDegreeBoundedTriangleCLLP(t *testing.T) {
	// Sec. 5.3: degree bounds strictly generalize cardinalities. With
	// |R|=|S|=|T|=N and out/in degree ≤ d in R, the CLLP bound is
	// min(N^{3/2}, N·d).
	q := paper.DegreeTriangle(64, 2)
	nR := float64(q.Rels[0].Len())
	nT := float64(q.Rels[2].Len())
	cllp := CLLPFromQuery(q)
	if cllp.LogBound == nil {
		t.Fatal("CLLP must be bounded")
	}
	want := math.Min(1.5*math.Log2(nR), math.Log2(nT)+math.Log2(2))
	got, _ := cllp.LogBound.Float64()
	if math.Abs(got-want) > 0.2 {
		t.Fatalf("CLLP degree triangle = %v, want ≈ %v", got, want)
	}
	// The plain LLP (no degree info) must be weaker (≈ N^{3/2}).
	llp := LLP(q)
	if llp.LogBound.Cmp(cllp.LogBound) < 0 {
		t.Fatal("LLP can never be tighter than CLLP with extra constraints")
	}
}

func TestColoredTriangleBound(t *testing.T) {
	// Eq. (2) / Appendix A: the colored query has GLVV ≤ min(N^{3/2}, N·d).
	q := paper.ColoredTriangle(64, 2)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	llp := LLP(q)
	nT := float64(q.Rels[2].Len())
	want := math.Log2(nT) + 1 // N·d with d = 2
	got, _ := llp.LogBound.Float64()
	if got > want+0.2 {
		t.Fatalf("colored triangle LLP = %v, want ≤ %v", got, want)
	}
}

func TestLLPEqualsAGMWithoutFDs(t *testing.T) {
	// Sec. 3.3: with no FDs (Boolean algebra), LLP optimum = AGM bound.
	for _, q := range []*query.Q{paper.TriangleProduct(3), paper.TriangleRandom(6, 20, 1)} {
		agm := AGM(q)
		llp := LLP(q)
		a, _ := agm.LogBound.Float64()
		b, _ := llp.LogBound.Float64()
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("LLP %v != AGM %v on Boolean algebra", b, a)
		}
	}
}

func TestMonotonize(t *testing.T) {
	// Monotonization of an LLP solution is a polymatroid with the same top
	// value (Prop. B.1).
	q := paper.Fig1QuasiProduct(16)
	llp := LLP(q)
	l := llp.Lat
	hbar := Monotonize(l, llp.H)
	if !IsPolymatroid(l, hbar) {
		t.Fatal("monotonization must be a polymatroid")
	}
	if hbar[l.Top].Cmp(llp.H[l.Top]) != 0 {
		t.Fatal("monotonization must preserve h(1̂)")
	}
	for x := range hbar {
		if hbar[x].Cmp(llp.H[x]) > 0 {
			t.Fatal("monotonization must not increase h")
		}
	}
}

func TestCLLPSpecializesToLLP(t *testing.T) {
	// Prop. 5.32: with P = {(0̂, R_j)}, CLLP = LLP.
	for _, q := range []*query.Q{paper.Fig1QuasiProduct(16), paper.M3Instance(8), paper.TriangleProduct(3)} {
		llp := LLP(q)
		cllp := CLLPFromQuery(q)
		if cllp.LogBound == nil || llp.LogBound.Cmp(cllp.LogBound) != 0 {
			t.Fatalf("CLLP %v != LLP %v", cllp.LogBound, llp.LogBound)
		}
	}
}

func TestCMIInversionRoundTrip(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	llp := LLP(q)
	l := llp.Lat
	g := CMI(l, llp.H)
	h2 := MobiusSum(l, g)
	for x := range llp.H {
		if llp.H[x].Cmp(h2[x]) != 0 {
			t.Fatalf("Möbius inversion round trip fails at %d", x)
		}
	}
}

func TestStepFunctionsAreNormal(t *testing.T) {
	l := lattice.Boolean(3)
	for z := 0; z < l.Size(); z++ {
		if z == l.Top {
			continue
		}
		h := StepFunction(l, z)
		if !IsNormalFunction(l, h) {
			t.Fatalf("step function at %v must be normal", l.Elems[z])
		}
		if !IsPolymatroid(l, h) {
			t.Fatalf("step function at %v must be a polymatroid", l.Elems[z])
		}
	}
}

func TestNormalDecomposition(t *testing.T) {
	// h = 2·h_Z1 + 3·h_Z2 must decompose back into those coefficients.
	l := lattice.Boolean(2)
	z1, z2 := 1, 2 // the two atoms (any non-top elements)
	h1 := StepFunction(l, z1)
	h2 := StepFunction(l, z2)
	h := make([]*big.Rat, l.Size())
	for x := range h {
		h[x] = new(big.Rat)
		h[x].Add(new(big.Rat).Mul(big.NewRat(2, 1), h1[x]), new(big.Rat).Mul(big.NewRat(3, 1), h2[x]))
	}
	a := NormalDecomposition(l, h)
	if a == nil {
		t.Fatal("combination of step functions must be normal")
	}
	if a[z1].Cmp(big.NewRat(2, 1)) != 0 || a[z2].Cmp(big.NewRat(3, 1)) != 0 {
		t.Fatalf("decomposition = %v, %v", a[z1], a[z2])
	}
}

func TestNonNormalXORFunction(t *testing.T) {
	// Fig. 3 left: the XOR entropy on 2^{x,y,z} — h(singleton)=1,
	// h(pair)=2, h(1̂)=2 — is not normal (its CMI has g(0̂) = +1).
	l := lattice.Boolean(3)
	h := make([]*big.Rat, l.Size())
	for x := range h {
		switch l.Elems[x].Len() {
		case 0:
			h[x] = new(big.Rat)
		case 1:
			h[x] = big.NewRat(1, 1)
		default:
			h[x] = big.NewRat(2, 1)
		}
	}
	if IsNormalFunction(l, h) {
		t.Fatal("XOR entropy must not be normal")
	}
	g := CMI(l, h)
	if g[l.Bottom].Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("g(0̂) = %v, want 1", g[l.Bottom])
	}
}

func TestFig9LatticeNotNormalIrrelevantButSMBoundHolds(t *testing.T) {
	// Example 5.31 notes the Fig. 9 lattice IS normal (surprisingly).
	q, _ := paper.Fig9Instance(4)
	if !IsNormalLattice(q).Normal {
		t.Fatal("Fig. 9 lattice must be normal (Example 5.31)")
	}
}

// The exact.Num kernel took one LLP of the 27-element lattice below from
// 168k allocations to 2.4k and its CLLP from 237k to 2.9k (what remains is
// the big.Rat terms of the problem and the solution vectors). The ceilings
// leave room for incidental change, not for a tableau of heap numbers.
func TestLPAllocationCeilings(t *testing.T) {
	q := paper.SimpleFDChain(6, 32)
	q.Lattice()
	for _, tc := range []struct {
		name    string
		solve   func()
		ceiling float64
	}{
		{"LLP", func() { LLP(q) }, 5000},
		{"CLLPFromQuery", func() { CLLPFromQuery(q) }, 6000},
	} {
		if got := testing.AllocsPerRun(3, tc.solve); got > tc.ceiling {
			t.Errorf("%s: %.0f allocations per solve, ceiling %.0f", tc.name, got, tc.ceiling)
		}
	}
}
