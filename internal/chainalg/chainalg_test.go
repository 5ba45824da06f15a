package chainalg

import (
	"context"
	"testing"

	"repro/internal/lattice"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

func checkAgainstNaive(t *testing.T, q *query.Q, what string) *Stats {
	t.Helper()
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	st, err := RunInto(context.Background(), q, nil, out)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := naive.Evaluate(q)
	if !rel.Equal(out.R, want) {
		t.Fatalf("%s: chain algorithm output %d tuples, naive %d", what, out.R.Len(), want.Len())
	}
	return st
}

func TestTriangle(t *testing.T) {
	checkAgainstNaive(t, paper.TriangleProduct(3), "product triangle")
	for seed := int64(0); seed < 8; seed++ {
		checkAgainstNaive(t, paper.TriangleRandom(6, 25, seed), "random triangle")
	}
}

func TestFig1QuasiProduct(t *testing.T) {
	checkAgainstNaive(t, paper.Fig1QuasiProduct(16), "Fig1 quasi-product")
}

func TestFig1Skew(t *testing.T) {
	checkAgainstNaive(t, paper.Fig1Skew(32), "Fig1 skew")
}

func TestFig1SkewSubquadratic(t *testing.T) {
	// Example 5.8: the Chain Algorithm on the chain 0̂≺y≺yz≺1̂ does
	// Õ(N^{3/2}) work on the skew instance where generic join does Ω(N²).
	small := paper.Fig1Skew(64)
	big := paper.Fig1Skew(256)
	stS, err := RunInto(context.Background(), small, nil, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	stB, err := RunInto(context.Background(), big, nil, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	// N grew 4×: quadratic work would grow 16×; N^{3/2} grows 8×.
	ratio := float64(stB.TuplesVisited+stB.Probes) / float64(stS.TuplesVisited+stS.Probes)
	if ratio > 12 {
		t.Fatalf("chain algorithm work grew %.1f× on 4× input (looks quadratic)", ratio)
	}
}

func TestFig5(t *testing.T) {
	st := checkAgainstNaive(t, paper.Fig5Instance(6), "Fig5")
	// The selected chain must be the non-maximal Cor. 5.9 chain (length 3).
	if len(st.Chain) != 3 {
		t.Fatalf("expected the length-3 Cor 5.9 chain, got %v", st.Chain)
	}
}

func TestM3(t *testing.T) {
	checkAgainstNaive(t, paper.M3Instance(6), "M3")
}

func TestFig4(t *testing.T) {
	q, _ := paper.Fig4Instance(27)
	checkAgainstNaive(t, q, "Fig4")
}

func TestFig9(t *testing.T) {
	q, _ := paper.Fig9Instance(9)
	checkAgainstNaive(t, q, "Fig9")
}

func TestColoredTriangle(t *testing.T) {
	checkAgainstNaive(t, paper.ColoredTriangle(24, 2), "colored triangle")
}

func TestSimpleFDChain(t *testing.T) {
	checkAgainstNaive(t, paper.SimpleFDChain(4, 12), "simple FD chain")
}

func TestFourCycleWithKey(t *testing.T) {
	checkAgainstNaive(t, paper.FourCycleWithKey(8), "4-cycle with key")
}

func TestCompositeKey(t *testing.T) {
	checkAgainstNaive(t, paper.CompositeKey(4, 64), "composite key")
}

func TestExplicitChainFig1(t *testing.T) {
	// Example 5.8's walk-through: chain 0̂ ≺ y ≺ yz ≺ 1̂.
	q := paper.Fig1QuasiProduct(16)
	l := q.Lattice()
	c := lattice.Chain{l.Bottom, l.Index(q.Vars("y")), l.Index(q.Vars("y", "z")), l.Top}
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	st, err := RunInto(context.Background(), q, c, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("explicit chain run disagrees with naive")
	}
	// Intermediates: Q1(y) = 4, Q2(yz) = 16, Q3 = 64.
	if st.Intermediate[0] != 4 || st.Intermediate[1] != 16 || st.Intermediate[2] != 64 {
		t.Fatalf("intermediate sizes %v, want [4 16 64]", st.Intermediate)
	}
}

func TestRejectsNonGoodChain(t *testing.T) {
	q := paper.Fig1QuasiProduct(4)
	l := q.Lattice()
	// A non-chain input.
	if _, err := RunInto(context.Background(), q, lattice.Chain{l.Top, l.Bottom}, &rel.CountSink{}); err == nil {
		t.Fatal("expected error for invalid chain")
	}
}

// Alloc regression: on the skewed Fig.1 instance a warm run — best chain
// memoized, the instance's prepared record (R_j⁺, every step's projection
// with its index and hashed lookups, the programs, the FD tables) built by
// the first run — allocates
// only its own Q_i relations and per-step bookkeeping (107 measured; 268
// when every run re-expanded, re-projected and re-indexed the inputs, 130
// with per-covering probe buffers and a sort per step).
func TestRunBestAllocRegression(t *testing.T) {
	q := paper.Fig1Skew(1024)
	if _, err := RunInto(context.Background(), q, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil { // warm plan record + prepared record
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunInto(context.Background(), q, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 134 {
		t.Fatalf("chain algorithm allocates %v times per warm run, want ≤ 134", allocs)
	}
}

// TestIntermediateStepsEmitNoDuplicates: on every catalog family with a good
// chain, no Q_i — which the steps neither sort nor deduplicate — holds a
// duplicate (SortDedup on a copy drops nothing), so the count a CountSink
// takes unsorted is the number of rows a CollectSink receives.
func TestIntermediateStepsEmitNoDuplicates(t *testing.T) {
	defer func() { observeStep = nil }()
	ran := 0
	for _, f := range scenario.Catalog() {
		q := f.Build(f.Small[0])
		steps := 0
		observeStep = func(qi *rel.Relation) {
			steps++
			c := qi.Clone()
			if c.SortDedup(); c.Len() != qi.Len() {
				t.Errorf("%s: Q_%d holds %d rows, %d distinct", f.Name, steps, qi.Len(), c.Len())
			}
		}
		count := &rel.CountSink{}
		if _, err := RunInto(context.Background(), q, nil, count); err != nil {
			continue // no good chain with a finite bound
		}
		if steps == 0 {
			t.Errorf("%s: the run showed no step", f.Name)
		}
		ran++
		observeStep = nil
		out := rel.NewCollect("Q", q.AllVars().Members()...)
		if _, err := RunInto(context.Background(), q, nil, out); err != nil {
			t.Fatal(err)
		}
		if count.N != out.R.Len() {
			t.Errorf("%s: counted %d rows, collected %d", f.Name, count.N, out.R.Len())
		}
	}
	if ran < 15 {
		t.Fatalf("the chain algorithm ran on only %d catalog families: the test lost its coverage", ran)
	}
}
