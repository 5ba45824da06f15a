package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
)

func mustRun(t *testing.T, q *query.Q, opts *Options) (*rel.Relation, *Stats) {
	t.Helper()
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := b.Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func planOf(t *testing.T, q *query.Q) *Plan {
	t.Helper()
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b.Plan()
}

func TestPrepareBindRun(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	want := naive.Evaluate(q)
	out, st := mustRun(t, q, nil)
	if !rel.Equal(out, want) {
		t.Fatalf("engine output wrong: got %d want %d tuples", out.Len(), want.Len())
	}
	if st.OutSize != want.Len() {
		t.Fatalf("stats OutSize %d != %d", st.OutSize, want.Len())
	}
	if st.Plan.Algorithm == AlgAuto || st.Plan.Reason == "" {
		t.Fatalf("plan not recorded: %+v", st.Plan)
	}
}

func TestRunExplicitAlgorithms(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	want := naive.Evaluate(q)
	for _, alg := range []Algorithm{AlgChain, AlgSM, AlgCSMA, AlgGenericJoin, AlgBinary, AlgAuto} {
		out, st := mustRun(t, q, &Options{Algorithm: alg})
		if !rel.Equal(out, want) {
			t.Fatalf("%s: wrong answer", alg)
		}
		if alg != AlgAuto && st.Plan.Algorithm != alg {
			t.Fatalf("%s: plan overrode explicit request with %s", alg, st.Plan.Algorithm)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	q := paper.TriangleProduct(2)
	p, _ := Prepare(q)
	b, _ := p.Bind(nil)
	if _, _, err := b.Run(context.Background(), &Options{Algorithm: "nope"}); err == nil {
		t.Fatal("expected error for unknown algorithm")
	}
}

func TestBindRejectsMismatchedInstance(t *testing.T) {
	q := paper.TriangleProduct(2)
	p, _ := Prepare(q)
	if _, err := p.Bind([]*rel.Relation{rel.New("R", 0, 1)}); err == nil {
		t.Fatal("expected count mismatch error")
	}
	bad := make([]*rel.Relation, len(q.Rels))
	for j := range bad {
		bad[j] = rel.New("B", 0) // wrong variable sets
	}
	if _, err := p.Bind(bad); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

// --- planner decision table, one test per row ---

func TestPlannerPicksChain(t *testing.T) {
	// Simple FDs (Cor. 5.17): distributive lattice, chain bound tight and
	// equal to the LLP — the tie breaks toward the cheaper chain machine.
	q := paper.SimpleFDChain(4, 256)
	pl := planOf(t, q)
	if pl.Algorithm != AlgChain {
		t.Fatalf("want chain, got %s (%s)", pl.Algorithm, pl.Reason)
	}
	if pl.Chain == nil || math.IsInf(pl.LogBound, 1) {
		t.Fatalf("chain plan missing artifacts: %+v", pl)
	}
}

func TestPlannerPicksSMA(t *testing.T) {
	// Fig. 4 (Examples 5.18/5.20): chain bound N^{3/2} beaten by the SM
	// bound N^{4/3}, and a good SM proof exists.
	q, _ := paper.Fig4Instance(125)
	pl := planOf(t, q)
	if pl.Algorithm != AlgSM {
		t.Fatalf("want sm, got %s (%s)", pl.Algorithm, pl.Reason)
	}
}

func TestPlannerPicksCSMA(t *testing.T) {
	// Degree-bounded triangle (Eq. 2): CLLP = min(N^{3/2}, N·d) beats every
	// chain, and degree bounds are CSMA-only machinery.
	q := paper.DegreeTriangle(512, 2)
	pl := planOf(t, q)
	if pl.Algorithm != AlgCSMA {
		t.Fatalf("want csma, got %s (%s)", pl.Algorithm, pl.Reason)
	}
	// Fig. 9 (Example 5.31): no good SM proof exists, so the LLP bound is
	// only reachable through CSMA.
	q9, _ := paper.Fig9Instance(64)
	pl9 := planOf(t, q9)
	if pl9.Algorithm != AlgCSMA {
		t.Fatalf("Fig9: want csma, got %s (%s)", pl9.Algorithm, pl9.Reason)
	}
	// Whatever the planner picks on a small Fig. 9 instance, SMA has no
	// proof there, and the answer must still be exact.
	q9s, _ := paper.Fig9Instance(9)
	if out, _ := mustRun(t, q9s, nil); !rel.Equal(out, naive.Evaluate(q9s)) {
		t.Fatal("Fig9 at size 9: auto produced a wrong answer")
	}
}

func TestPlannerPicksGeneric(t *testing.T) {
	// No FDs, no degree bounds: Generic-Join is AGM-worst-case optimal.
	q := paper.TriangleProduct(16)
	pl := planOf(t, q)
	if pl.Algorithm != AlgGenericJoin {
		t.Fatalf("want generic, got %s (%s)", pl.Algorithm, pl.Reason)
	}
}

func TestPlannerPicksBinaryOnTinyInput(t *testing.T) {
	q := paper.TriangleProduct(2)
	pl := planOf(t, q)
	if pl.Algorithm != AlgBinary {
		t.Fatalf("want binary, got %s (%s)", pl.Algorithm, pl.Reason)
	}
}

// --- parallel execution ---

// identical asserts byte-identical sorted outputs: same attribute order and
// the same rows in the same order.
func identical(t *testing.T, a, b *rel.Relation) {
	t.Helper()
	if !rel.Identical(a, b) {
		t.Fatalf("outputs not byte-identical: %dx%d attrs %v vs %dx%d attrs %v",
			a.Len(), a.Arity(), a.Attrs, b.Len(), b.Arity(), b.Attrs)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		q    *query.Q
	}{
		{"E1-skew", paper.Fig1Skew(256)},
		{"E12-simple-fds", paper.SimpleFDChain(5, 256)},
		{"E3-triangle", paper.TriangleProduct(12)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq, stSeq := mustRun(t, tc.q, &Options{Workers: 1})
			par, stPar := mustRun(t, tc.q, &Options{Workers: 4, MinParallelRows: 1})
			if stSeq.Workers != 1 || stPar.Workers != 4 || stPar.PartitionVar < 0 {
				t.Fatalf("parallelism not exercised: seq %+v par %+v", stSeq, stPar)
			}
			identical(t, seq, par)
			if !rel.Equal(seq, naive.Evaluate(tc.q)) {
				t.Fatal("sequential result disagrees with naive oracle")
			}
		})
	}
}

func TestParallelEveryAlgorithm(t *testing.T) {
	q := paper.Fig1QuasiProduct(32)
	want := naive.Evaluate(q)
	for _, alg := range []Algorithm{AlgChain, AlgSM, AlgCSMA, AlgGenericJoin, AlgBinary} {
		seq, _ := mustRun(t, q, &Options{Algorithm: alg, Workers: 1})
		par, st := mustRun(t, q, &Options{Algorithm: alg, Workers: 3, MinParallelRows: 1})
		if st.Ran != alg || st.Workers != 3 {
			t.Fatalf("%s parallel: ran %s on %d workers", alg, st.Ran, st.Workers)
		}
		identical(t, seq, par)
		if !rel.Equal(par, want) {
			t.Fatalf("%s parallel: wrong answer", alg)
		}
	}
}

func TestExplicitAlgorithmFailsConsistently(t *testing.T) {
	// Fig. 9 has no good SM proof, so an explicit AlgSM request must fail
	// with smalg.ErrNoGoodProof regardless of worker count: the proof is
	// searched once, on the whole instance, before anything splits.
	q, _ := paper.Fig9Instance(64)
	p, _ := Prepare(q)
	b, _ := p.Bind(nil)
	if _, _, err := b.Run(context.Background(), &Options{Algorithm: AlgSM, Workers: 1}); !errors.Is(err, smalg.ErrNoGoodProof) {
		t.Fatalf("sequential explicit sm on Fig9: %v, want ErrNoGoodProof", err)
	}
	if _, _, err := b.Run(context.Background(), &Options{Algorithm: AlgSM, Workers: 4, MinParallelRows: 1}); !errors.Is(err, smalg.ErrNoGoodProof) {
		t.Fatalf("parallel explicit sm on Fig9: %v, want ErrNoGoodProof like the sequential path", err)
	}
}

func TestRunObservesContextCancellation(t *testing.T) {
	q := paper.Fig1Skew(256)
	p, _ := Prepare(q)
	b, _ := p.Bind(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := b.Run(ctx, &Options{Workers: 4, MinParallelRows: 1}); err == nil {
		t.Fatal("expected context cancellation error")
	}
	if _, _, err := b.Run(ctx, &Options{Workers: 1}); err == nil {
		t.Fatal("expected context cancellation error (sequential)")
	}
}

// --- concurrency: one prepared shape, many concurrent Runs (run with -race) ---

func TestConcurrentRunsMatchSequential(t *testing.T) {
	q := paper.Fig1QuasiProduct(32)
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := b.Run(context.Background(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	outs := make([]*rel.Relation, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Alternate sequential and parallel runs to stress both the
			// shared plan records and the shared index caches.
			opts := &Options{Workers: 1}
			if g%2 == 1 {
				opts = &Options{Workers: 2, MinParallelRows: 1}
			}
			outs[g], _, errs[g] = b.Run(context.Background(), opts)
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		identical(t, want, outs[g])
	}
}

func TestConcurrentBindsShareShape(t *testing.T) {
	// One shape, several instances of different sizes, all running at once.
	shape := paper.Fig1QuasiProduct(16)
	p, err := Prepare(shape)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 16, 27, 32}
	var wg sync.WaitGroup
	errCh := make(chan error, len(sizes)*2)
	for _, n := range sizes {
		inst := paper.Fig1QuasiProduct(n)
		b, err := p.Bind(inst.Rels)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Evaluate(inst)
		for rep := 0; rep < 2; rep++ {
			wg.Add(1)
			go func(b *Bound, want *rel.Relation) {
				defer wg.Done()
				out, _, err := b.Run(context.Background(), &Options{Workers: 2, MinParallelRows: 1})
				if err != nil {
					errCh <- err
					return
				}
				if !rel.Equal(out, want) {
					errCh <- errMismatch
				}
			}(b, want)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

var errMismatch = errorString("concurrent bind produced a wrong answer")

type errorString string

func (e errorString) Error() string { return string(e) }

// --- fuzz: the planner's choice must always return the reference output ---

func TestFuzzPlannerMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(516))
	for trial := 0; trial < 30; trial++ {
		withFDs := trial%2 == 0
		q := scenario.RandomQuery(rng, 3+rng.Intn(2), 2+rng.Intn(2), 20, 4, withFDs)
		if err := q.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := naive.Evaluate(q)
		seq, st := mustRun(t, q, &Options{Workers: 1})
		if !rel.Equal(seq, want) {
			t.Fatalf("trial %d: planner chose %s (%s) and got %d tuples, want %d",
				trial, st.Plan.Algorithm, st.Plan.Reason, seq.Len(), want.Len())
		}
		par, _ := mustRun(t, q, &Options{Workers: 3, MinParallelRows: 1})
		identical(t, seq, par)
	}
}
