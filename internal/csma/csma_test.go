package csma

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bounds"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
)

func runAndCheck(t *testing.T, q *query.Q, what string) *Stats {
	t.Helper()
	out := rel.NewCollect("Q", q.AllVars().Members()...)
	st, err := RunInto(context.Background(), q, nil, out)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := naive.Evaluate(q)
	if !rel.Equal(out.R, want) {
		t.Fatalf("%s: CSMA output %d tuples, naive %d", what, out.R.Len(), want.Len())
	}
	return st
}

func TestTriangle(t *testing.T) {
	runAndCheck(t, paper.TriangleProduct(3), "product triangle")
	for seed := int64(0); seed < 6; seed++ {
		runAndCheck(t, paper.TriangleRandom(5, 18, seed), "random triangle")
	}
}

func TestFig1(t *testing.T) {
	runAndCheck(t, paper.Fig1QuasiProduct(16), "Fig1 quasi-product")
	runAndCheck(t, paper.Fig1Skew(16), "Fig1 skew")
}

func TestFig9(t *testing.T) {
	// Example 5.31 continued: the query with no SM proof. CSMA must handle
	// it — this is the paper's motivating case for the CSM rules.
	q, _ := paper.Fig9Instance(9)
	st := runAndCheck(t, q, "Fig9")
	if st.PlanLen == 0 {
		t.Fatal("plan should be non-trivial")
	}
}

func TestFig9Larger(t *testing.T) {
	q, _ := paper.Fig9Instance(25)
	runAndCheck(t, q, "Fig9 n=25")
}

func TestFig4(t *testing.T) {
	q, _ := paper.Fig4Instance(27)
	runAndCheck(t, q, "Fig4")
}

func TestM3(t *testing.T) {
	runAndCheck(t, paper.M3Instance(6), "M3")
}

func TestFig5(t *testing.T) {
	runAndCheck(t, paper.Fig5Instance(5), "Fig5")
}

func TestDegreeTriangle(t *testing.T) {
	// Degree bounds flow into the CLLP and the plan.
	runAndCheck(t, paper.DegreeTriangle(32, 2), "degree triangle")
	runAndCheck(t, paper.DegreeTriangle(32, 4), "degree triangle d=4")
}

func TestColoredTriangle(t *testing.T) {
	runAndCheck(t, paper.ColoredTriangle(24, 2), "colored triangle")
}

func TestSimpleFDChain(t *testing.T) {
	runAndCheck(t, paper.SimpleFDChain(4, 10), "simple FD chain")
}

func TestFourCycleWithKey(t *testing.T) {
	runAndCheck(t, paper.FourCycleWithKey(8), "4-cycle with key")
}

func TestCompositeKey(t *testing.T) {
	runAndCheck(t, paper.CompositeKey(4, 64), "composite key")
}

// Alloc regression: on the E2-shaped degree-bounded triangle a warm run —
// CLLP plan memoized, the instance's prepared record (expanded inputs, their
// projections and degree classes, the FD tables) built by the first run —
// allocates only what it produces itself: joined tables, branch states,
// the result (126 measured; ~10k before the flat hash layer and the plan
// memo, 252 when every run rebuilt the record's contents, 155 while the final
// reduction made one filtered copy per input).
func TestRunAllocRegression(t *testing.T) {
	q := paper.DegreeTriangle(256, 8)
	if _, err := RunInto(context.Background(), q, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil { // warm plan record + prepared record
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunInto(context.Background(), q, nil, rel.NewCollect("Q", q.AllVars().Members()...)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 158 {
		t.Fatalf("CSMA allocates %v times per warm run, want ≤ 158", allocs)
	}
}

// TestBuildPlanIsDeterministic: the Theorem 5.34 construction is a function
// of the dual solution — forty builds from one CLLP solution give one op
// sequence, on every catalog family CSMA can plan. (Picking the Lemma 5.33
// pair by ranging over the s map gave fig9 six different plans.)
func TestBuildPlanIsDeterministic(t *testing.T) {
	planned := 0
	for _, f := range scenario.Catalog() {
		res := bounds.CLLPFromQuery(f.Build(f.Small[0]))
		if res.LogBound == nil {
			continue
		}
		want, err := buildPlan(res.Lat, res)
		if err != nil {
			continue
		}
		planned++
		for i := 1; i < 40; i++ {
			if got, _ := buildPlan(res.Lat, res); !slices.Equal(got, want) {
				t.Fatalf("%s: build %d gave plan %v, the first %v", f.Name, i, got, want)
			}
		}
	}
	if planned < 20 {
		t.Fatalf("CSMA planned only %d catalog families: the test lost its coverage", planned)
	}
}

// TestFig1SkewRestartsOnce: on Example 5.8's skew instance the first heavy
// bucket overflows the budget and its branch's re-solved CLLP does not drop
// below the plan's optimum, so the restart is refused (Lemma 5.36 restarts
// only on a strictly lower optimum) and the bucket is joined at once.
func TestFig1SkewRestartsOnce(t *testing.T) {
	var out rel.CountSink
	st, err := RunInto(context.Background(), paper.Fig1Skew(256), nil, &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Restarts != 1 || st.Overflows != 1 || out.N != 382 {
		t.Fatalf("%d restarts, %d overflows, %d rows; want 1, 1 and 382", st.Restarts, st.Overflows, out.N)
	}
}
