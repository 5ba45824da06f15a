package engine

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/wcoj"
)

// sinkShapes is the cross-algorithm matrix the streaming tests run over:
// each draws the planner (or an explicit request) onto a different machine.
func sinkShapes() []struct {
	name string
	q    *query.Q
	opts Options
} {
	fig4, _ := paper.Fig4Instance(125)
	return []struct {
		name string
		q    *query.Q
		opts Options
	}{
		{"auto-chain", paper.SimpleFDChain(4, 128), Options{}},
		{"auto-generic", paper.TriangleProduct(8), Options{}},
		{"csma", paper.DegreeTriangle(128, 2), Options{Algorithm: AlgCSMA}},
		{"sm", fig4, Options{Algorithm: AlgSM}},
		{"binary", paper.TriangleProduct(8), Options{Algorithm: AlgBinary}},
		{"chain", paper.Fig1Skew(64), Options{Algorithm: AlgChain}},
	}
}

func TestRunIntoMatchesRunAcrossAlgorithms(t *testing.T) {
	for _, sh := range sinkShapes() {
		for _, workers := range []int{1, 3} {
			opts := sh.opts
			opts.Workers = workers
			opts.MinParallelRows = 1
			b := mustBind(t, sh.q)
			want, st, err := b.Run(context.Background(), &opts)
			if err != nil {
				t.Fatalf("%s/w=%d: %v", sh.name, workers, err)
			}
			if want.Len() == 0 {
				t.Fatalf("%s: vacuous shape (empty output)", sh.name)
			}

			sink := rel.NewCollect("Q", sh.q.AllVars().Members()...)
			st2, err := b.RunInto(context.Background(), &opts, sink)
			if err != nil {
				t.Fatalf("%s/w=%d RunInto: %v", sh.name, workers, err)
			}
			if !rel.Identical(want, sink.R) {
				t.Fatalf("%s/w=%d: streamed rows differ from materialized (%d vs %d rows)",
					sh.name, workers, sink.R.Len(), want.Len())
			}
			if st2.OutSize != st.OutSize {
				t.Fatalf("%s/w=%d: OutSize %d vs %d", sh.name, workers, st2.OutSize, st.OutSize)
			}
		}
	}
}

func TestRunIntoLimitIsPrefix(t *testing.T) {
	for _, sh := range sinkShapes() {
		for _, workers := range []int{1, 3} {
			opts := sh.opts
			opts.Workers = workers
			opts.MinParallelRows = 1
			b := mustBind(t, sh.q)
			want, _, err := b.Run(context.Background(), &opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, want.Len() / 2, want.Len(), want.Len() + 5} {
				inner := rel.NewCollect("Q", sh.q.AllVars().Members()...)
				st, err := b.RunInto(context.Background(), &opts, rel.Limit(inner, k))
				if err != nil {
					t.Fatalf("%s/w=%d limit %d: %v", sh.name, workers, k, err)
				}
				wantK := min(k, want.Len())
				if inner.R.Len() != wantK || st.OutSize != wantK {
					t.Fatalf("%s/w=%d limit %d: got %d rows (OutSize %d), want %d",
						sh.name, workers, k, inner.R.Len(), st.OutSize, wantK)
				}
				for i := 0; i < wantK; i++ {
					if !slices.Equal(inner.R.Row(i), want.Row(i)) {
						t.Fatalf("%s/w=%d limit %d: row %d = %v not the prefix row %v",
							sh.name, workers, k, i, inner.R.Row(i), want.Row(i))
					}
				}
			}
		}
	}
}

func TestRunIntoCountOnly(t *testing.T) {
	q := paper.TriangleProduct(8)
	b := mustBind(t, q)
	want, _, err := b.Run(context.Background(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var c rel.CountSink
	st, err := b.RunInto(context.Background(), &Options{Workers: 1}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if c.N != want.Len() || st.OutSize != want.Len() {
		t.Fatalf("count-only run saw %d rows (OutSize %d), want %d", c.N, st.OutSize, want.Len())
	}
}

// cancelOnPush cancels the run's context as soon as the first row arrives,
// then keeps accepting rows: the run can only end via the executor's own
// context checks — which is exactly what the test wants to prove exist.
type cancelOnPush struct {
	cancel context.CancelFunc
	rows   int
}

func (c *cancelOnPush) Push(rel.Tuple) bool {
	c.rows++
	if c.rows == 1 {
		c.cancel()
	}
	return true
}

// TestCancelledRunReturnsPromptly drives a worst/* AGM-saturating scenario
// (the planner picks Generic-Join on its FD-free product instance) and
// cancels mid-descent, after the first streamed row: the run must abort
// from inside the descent loop with context.Canceled, long before the
// full product output is enumerated.
func TestCancelledRunReturnsPromptly(t *testing.T) {
	q := scenario.AGMProduct(128, 1)
	b := mustBind(t, q)
	want, _, err := b.Run(context.Background(), &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() < 1000 {
		t.Fatalf("scenario too small to prove early abort: %d rows", want.Len())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelOnPush{cancel: cancel}
	start := time.Now()
	_, err = b.RunInto(ctx, &Options{Workers: 1}, sink)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if sink.rows == 0 || sink.rows >= want.Len() {
		t.Fatalf("abort was not mid-stream: saw %d of %d rows", sink.rows, want.Len())
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled run took %v to return", elapsed)
	}
}

// TestCancelledExecutorsReturnPromptly hits every executor's own
// phase-boundary checks with an already-cancelled context: the first loop
// iteration must observe it and abort with context.Canceled.
func TestCancelledExecutorsReturnPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fig4, _ := paper.Fig4Instance(125)
	var sink rel.CountSink

	if _, err := chainalg.RunInto(ctx, paper.Fig1Skew(64), nil, &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("chainalg: %v", err)
	}
	if _, err := csma.RunInto(ctx, paper.DegreeTriangle(64, 2), nil, &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("csma: %v", err)
	}
	if _, err := smalg.RunInto(ctx, fig4, nil, nil, &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("smalg: %v", err)
	}
	if _, err := wcoj.BinaryPlanInto(ctx, paper.TriangleProduct(8), &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("binary: %v", err)
	}
	// The generic descent checks ctx every few hundred steps, so use an
	// instance whose search tree is comfortably larger than one interval.
	big := scenario.AGMProduct(128, 1)
	if _, err := wcoj.GenericJoinInto(ctx, big, wcoj.DefaultOrder(big), &sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("generic: %v", err)
	}
	if sink.N != 0 {
		t.Fatalf("pre-cancelled executors still pushed %d rows", sink.N)
	}

	// Parallel entry: a dead context is refused before partitioning.
	b := mustBind(t, big)
	if _, _, err := b.Run(ctx, &Options{Workers: 4, MinParallelRows: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel run: %v", err)
	}
}

func mustBind(t *testing.T, q *query.Q) *Bound {
	t.Helper()
	p, err := Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
