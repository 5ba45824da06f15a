package smalg

import (
	"context"
	"math/big"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lattice"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

func TestFindProofTriangle(t *testing.T) {
	// The Boolean-algebra triangle: w* = (1/2,1/2,1/2), d = 2, and the
	// classic proof of Example 3.10 exists and is good.
	q := paper.TriangleProduct(3)
	llp := bounds.LLP(q)
	p := FindProof(llp)
	if p == nil {
		t.Fatal("triangle must have a good SM proof")
	}
	if p.D != 2 {
		t.Fatalf("d = %d, want 2", p.D)
	}
	if !p.IsGood(llp.Lat) {
		t.Fatal("returned proof must be good")
	}
}

func TestFindProofFig4(t *testing.T) {
	// Example 5.20/5.27: the Fig. 4 query has a good SM proof with
	// w = (1/3,1/3,1/3,1/3), d = 3.
	q, _ := paper.Fig4Instance(27)
	llp := bounds.LLP(q)
	p := FindProof(llp)
	if p == nil {
		t.Fatal("Fig. 4 must have a good SM proof (Example 5.27)")
	}
	if p.D != 3 {
		t.Fatalf("d = %d, want 3", p.D)
	}
}

func TestNoProofFig9(t *testing.T) {
	// Example 5.31: the Fig. 9 inequality h(M)+h(N)+h(O) ≥ 2h(1̂) admits NO
	// SM proof sequence.
	q, _ := paper.Fig9Instance(4)
	llp := bounds.LLP(q)
	if p := FindProof(llp); p != nil {
		t.Fatalf("Fig. 9 must not have an SM proof, found %v", p)
	}
}

func TestFig7NonGoodSequenceDetected(t *testing.T) {
	// Example 5.29: on the Fig. 7 lattice, the 4-step sequence
	// (X,Y)→(B,A), (A,Z)→(C,1̂), (B,U)→(0̂,D), (C,D)→(0̂,1̂) is NOT good,
	// while (X,Z)→(C,1̂), (Y,U)→(0̂,D), (C,D)→(0̂,1̂) IS good.
	l := lattice.FromFamily(6, paper.Fig7Family())
	idx := func(s varset.Set) int {
		i := l.Index(s)
		if i < 0 {
			t.Fatalf("element %v missing", s)
		}
		return i
	}
	C := idx(varset.Of(0))
	B := idx(varset.Of(1))
	Z := idx(varset.Of(0, 2))
	X := idx(varset.Of(0, 1, 3))
	Y := idx(varset.Of(1, 4))
	U := idx(varset.Of(5))
	A := idx(varset.Of(0, 1, 3, 4))
	D := idx(varset.Of(1, 4, 5))

	// Sanity: the lattice relations of Example 5.29.
	if l.Meet(X, Y) != B || l.Join(X, Y) != A {
		t.Fatal("X∧Y=B, X∨Y=A expected")
	}
	if l.Meet(A, Z) != C || l.Join(A, Z) != l.Top {
		t.Fatal("A∧Z=C, A∨Z=1̂ expected")
	}
	if l.Join(B, U) != D || l.Meet(B, U) != l.Bottom {
		t.Fatal("B∨U=D, B∧U=0̂ expected")
	}
	if l.Join(C, D) != l.Top || l.Meet(C, D) != l.Bottom {
		t.Fatal("C∨D=1̂, C∧D=0̂ expected")
	}

	mk := func(steps [][2]int) *Proof {
		p := &Proof{D: 2, InitElems: []int{X, Y, Z, U}, InitRel: []int{0, 1, 2, 3}}
		live := append([]int{}, p.InitElems...)
		for _, s := range steps {
			x, y := live[s[0]], live[s[1]]
			st := Step{SlotX: s[0], SlotY: s[1], X: x, Y: y,
				Meet: l.Meet(x, y), Join: l.Join(x, y),
				SlotMeet: len(live), SlotJoin: len(live) + 1}
			live[s[0]], live[s[1]] = -1, -1
			live = append(live, st.Meet, st.Join)
			p.Steps = append(p.Steps, st)
		}
		p.NumSlots = len(live)
		return p
	}
	// Bad sequence: slots X=0,Y=1,Z=2,U=3.
	bad := mk([][2]int{{0, 1}, {5, 2}, {4, 3}, {6, 8}})
	// Step products: step1 → slots 4=B(meet) 5=A(join); step2 (A,Z) →
	// 6=C, 7=1̂; step3 (B,U) → 8=0̂, 9=D; step4 (C,D) → 10=0̂, 11=1̂.
	if bad.Steps[3].X != C && bad.Steps[3].Y != C {
		t.Fatalf("step 4 should involve C: %+v", bad.Steps[3])
	}
	if bad.IsGood(l) {
		t.Fatal("Example 5.29's first sequence must NOT be good")
	}
	// Good sequence: (X,Z) → (C, 1̂): slots 4=C 5=1̂; (Y,U) → (0̂, D):
	// 6=0̂, 7=D; (C, D) → (0̂, 1̂): 8, 9.
	good := mk([][2]int{{0, 2}, {1, 3}, {4, 7}})
	if !good.IsGood(l) {
		t.Fatal("Example 5.29's second sequence must be good")
	}
}

func runAndCheck(t *testing.T, q *query.Q, what string) *Stats {
	t.Helper()
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	st, err := RunInto(context.Background(), q, nil, nil, out)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := naive.Evaluate(q)
	if !rel.Equal(out.R, want) {
		t.Fatalf("%s: SMA output %d tuples, naive %d", what, out.R.Len(), want.Len())
	}
	return st
}

func TestRunTriangle(t *testing.T) {
	runAndCheck(t, paper.TriangleProduct(3), "product triangle")
	for seed := int64(0); seed < 6; seed++ {
		runAndCheck(t, paper.TriangleRandom(5, 18, seed), "random triangle")
	}
}

func TestRunFig4(t *testing.T) {
	// Example 5.25: SMA computes the Fig. 4 query within N^{4/3}.
	q, _ := paper.Fig4Instance(27)
	st := runAndCheck(t, q, "Fig4")
	if len(st.Proof.Steps) == 0 {
		t.Fatal("proof should have steps")
	}
}

func TestRunFig1(t *testing.T) {
	runAndCheck(t, paper.Fig1QuasiProduct(16), "Fig1 quasi-product")
	runAndCheck(t, paper.Fig1Skew(16), "Fig1 skew")
}

func TestRunSimpleFDChain(t *testing.T) {
	runAndCheck(t, paper.SimpleFDChain(4, 10), "simple FD chain")
}

func TestRunFig9Fails(t *testing.T) {
	q, _ := paper.Fig9Instance(4)
	if _, err := RunInto(context.Background(), q, nil, nil, &rel.CountSink{}); err == nil {
		t.Fatal("SMA must fail on Fig. 9 (no SM proof)")
	}
}

func TestSMBoundMatchesLLP(t *testing.T) {
	q, _ := paper.Fig4Instance(27)
	llp := bounds.LLP(q)
	b := SMBound(llp, q.LogSizes())
	if b.Cmp(llp.LogBound) != 0 {
		t.Fatalf("SM bound %v != LLP %v", b, llp.LogBound)
	}
}

func TestCommonDenominator(t *testing.T) {
	d, qs := commonDenominator([]*big.Rat{big.NewRat(1, 2), big.NewRat(1, 3), big.NewRat(0, 1)})
	if d != 6 || qs[0] != 3 || qs[1] != 2 || qs[2] != 0 {
		t.Fatalf("got d=%d qs=%v", d, qs)
	}
}

// Alloc regression: on the E5-shaped Fig.4 instance a warm run — LLP solve
// and proof memoized, the instance's prepared record (initial slot tables,
// their Z-projections, the FD tables) built by the first run — allocates
// only the tables its proof steps produce (208 measured; ~138k before the
// flat substrate and the memo, 402 when every run re-expanded the inputs, 248
// while the final reduction made one filtered copy per input).
func TestRunAutoAllocRegression(t *testing.T) {
	q, _ := paper.Fig4Instance(64)
	if _, err := RunInto(context.Background(), q, nil, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil { // warm plan record + prepared record
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunInto(context.Background(), q, nil, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 260 {
		t.Fatalf("SMA allocates %v times per warm run, want ≤ 260", allocs)
	}
}

// SMBound returns the bound certified by a proof: Σ_j w_j n_j where w_j are
// the dual weights the proof realizes. With a good tight proof this equals
// the LLP optimum.
func SMBound(llp *bounds.LLPResult, logSizes []*big.Rat) *big.Rat {
	sum := new(big.Rat)
	t := new(big.Rat)
	for j, w := range llp.W {
		t.Mul(w, logSizes[j])
		sum.Add(sum, t)
	}
	return sum
}
