package wcoj

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/work"
)

func TestGenericJoinTriangle(t *testing.T) {
	q := paper.TriangleProduct(3)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, DefaultOrder(q), out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on product triangle")
	}
}

func TestGenericJoinTriangleRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		q := paper.TriangleRandom(6, 25, seed)
		out := rel.NewCollect("Q", q.AllVars().Members()...)
		_, err := GenericJoinInto(context.Background(), q, DefaultOrder(q), out)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(out.R, naive.Evaluate(q)) {
			t.Fatalf("seed %d: generic join disagrees with naive", seed)
		}
	}
}

func TestGenericJoinFig1(t *testing.T) {
	// Order y, z, x, u as in Example 5.8 (u is UDF-derived).
	q := paper.Fig1QuasiProduct(16)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, []int{1, 2, 0, 3}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on Fig1")
	}
}

func TestGenericJoinFig1Skew(t *testing.T) {
	q := paper.Fig1Skew(16)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, []int{1, 2, 0, 3}, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on skew instance")
	}
}

func TestGenericJoinSkewIsQuadratic(t *testing.T) {
	// Example 5.8: on the skew instance, FD-blind generic join with order
	// y,z,x,u materializes Θ(N²) candidate extensions, while the output is
	// only Θ(N). This is the separation the Chain Algorithm removes.
	small := paper.Fig1Skew(32)
	big := paper.Fig1Skew(64)
	stSmall, err := GenericJoinInto(context.Background(), small, []int{1, 2, 0, 3}, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	stBig, err := GenericJoinInto(context.Background(), big, []int{1, 2, 0, 3}, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(stBig.Extensions) / float64(stSmall.Extensions)
	// Doubling N should ~quadruple the work (allow slack for lower-order
	// terms): definitely more than 3x.
	if ratio < 3 {
		t.Fatalf("expected quadratic work growth, got ratio %.2f (%d -> %d)",
			ratio, stSmall.Extensions, stBig.Extensions)
	}
}

// TestBudgetIsShared: descents under one work.Limit draw on it together. A
// lone descent within the limit charges exactly its work; a later one starts
// from what is left and stops one step in; concurrent ones sharing half of
// one descent's work stop within work.ShareQuantum + one step each of the
// limit.
func TestBudgetIsShared(t *testing.T) {
	q := paper.Fig1Skew(512)
	order := DefaultOrder(q)
	full, err := GenericJoinInto(context.Background(), q, order, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	total := full.Work()
	step := q.Rels[0].Len() * len(q.Rels) // one child-run scan, a probe per other relation per candidate
	ctx, l := work.WithLimit(context.Background(), total)
	if _, err := GenericJoinInto(ctx, q, order, &rel.CountSink{}); err != nil || l.Spent() != total {
		t.Fatalf("a descent within its limit: %v, charged %d of its %d", err, l.Spent(), total)
	}
	st, err := GenericJoinInto(ctx, q, order, &rel.CountSink{})
	if !errors.Is(err, work.ErrLimit) || st.Work() > step {
		t.Fatalf("a descent on a spent limit: %v after %d work, one step is %d", err, st.Work(), step)
	}

	const k = 4
	ctx, l = work.WithLimit(context.Background(), total/2)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = GenericJoinInto(ctx, q, order, &rel.CountSink{})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if !errors.Is(err, work.ErrLimit) {
			t.Fatalf("a descent sharing a limit of half its work: %v", err)
		}
	}
	if lag := k * (work.ShareQuantum + step); l.Spent() > total/2+lag {
		t.Fatalf("%d descents charged %d to a limit of %d; the lag bound is %d", k, l.Spent(), total/2, lag)
	}
}

func TestGenericJoinFig5(t *testing.T) {
	// z appears in no relation; must be derived by the UDF.
	q := paper.Fig5Instance(5)
	out := &rel.CountSink{}
	if _, err := GenericJoinInto(context.Background(), q, []int{0, 1, 2}, out); err != nil {
		t.Fatal(err)
	}
	if out.N != 25 {
		t.Fatalf("Fig5 output = %d, want 25", out.N)
	}
}

func TestGenericJoinM3(t *testing.T) {
	q := paper.M3Instance(6)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, DefaultOrder(q), out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on M3")
	}
}

func TestDefaultOrderDefersDerivedVariables(t *testing.T) {
	// Fig. 9 stores only D, E, F, M, N, O; P, S, T exist in no relation and
	// are derivable only after M or N is bound. The identity order dead-ends
	// on P at depth 3; DefaultOrder must defer it past a determining input
	// variable, and generic join must then agree with naive.
	q, _ := paper.Fig9Instance(16)
	order := DefaultOrder(q)
	pos := make([]int, q.K)
	for i, v := range order {
		pos[v] = i
	}
	// P (var 3) must come after at least one of M (6), N (7).
	if pos[3] < pos[6] && pos[3] < pos[7] {
		t.Fatalf("order %v binds derived P before any determining input", order)
	}
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, order, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on Fig9")
	}
}

func TestGenericJoinBadOrderLength(t *testing.T) {
	q := paper.TriangleProduct(2)
	if _, err := GenericJoinInto(context.Background(), q, []int{0, 1}, &rel.CountSink{}); err == nil {
		t.Fatal("expected error for short order")
	}
}

func TestBinaryPlan(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		q := paper.TriangleRandom(5, 15, seed)
		out := rel.NewCollect("Q", q.AllVars().Members()...)
		_, err := BinaryPlanInto(context.Background(), q, nil, out)
		if err != nil {
			t.Fatal(err)
		}
		if !rel.Equal(out.R, naive.Evaluate(q)) {
			t.Fatalf("seed %d: binary plan disagrees with naive", seed)
		}
	}
}

func TestBinaryPlanFig1(t *testing.T) {
	q := paper.Fig1QuasiProduct(9)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := BinaryPlanInto(context.Background(), q, nil, out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("binary plan disagrees with naive on Fig1")
	}
}

func TestColoredTriangleGenericJoin(t *testing.T) {
	q := paper.ColoredTriangle(24, 2)
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	_, err := GenericJoinInto(context.Background(), q, DefaultOrder(q), out)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out.R, naive.Evaluate(q)) {
		t.Fatal("generic join disagrees with naive on colored triangle")
	}
}
