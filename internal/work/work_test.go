package work_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/wcoj"
	"repro/internal/work"
)

// executor is one executor run on one instance: its Stats.Work and error.
type executor struct {
	name string
	q    *query.Q
	run  func(ctx context.Context, q *query.Q) (int, error)
	// step bounds the work the run does between two of its checks on q, so
	// how far past a limit it can get: one descent step, one candidate, one
	// join.
	step int
}

func executors(t *testing.T) []executor {
	fig4, _ := paper.Fig4Instance(216)
	fig9, _ := paper.Fig9Instance(64)
	zipf := family(t, "skew/zipf-hot", 2048)
	chain := paper.Fig1Skew(512)
	return []executor{
		{"chain", chain, func(ctx context.Context, q *query.Q) (int, error) {
			st, err := chainalg.RunInto(ctx, q, nil, &rel.CountSink{})
			return st.Work(), err
		}, len(chain.Rels) + 1}, // a probe per covering relation, then a candidate and its probes
		// fig4@216's proof has two steps, each joining 1296 tuples.
		{"sm", fig4, func(ctx context.Context, q *query.Q) (int, error) {
			st, err := smalg.RunInto(ctx, q, nil, nil, &rel.CountSink{})
			return st.Work(), err
		}, 1296},
		// fig9@64's CSM plan runs three joins of 512 tuples.
		{"csma/fig9", fig9, func(ctx context.Context, q *query.Q) (int, error) {
			st, err := csma.RunInto(ctx, q, nil, &rel.CountSink{})
			return st.Work(), err
		}, 512},
		// degree-triangle@2048 joins 2048 tuples, then 8192.
		{"csma/degree-triangle", paper.DegreeTriangle(2048, 4), func(ctx context.Context, q *query.Q) (int, error) {
			st, err := csma.RunInto(ctx, q, nil, &rel.CountSink{})
			return st.Work(), err
		}, 8192},
		{"generic", zipf, func(ctx context.Context, q *query.Q) (int, error) {
			st, err := wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), &rel.CountSink{})
			return st.Work(), err
		}, stepWork(zipf)},
		// The 4×4×4 triangle's joins materialize 16, 64 and 64 rows.
		{"binary", paper.TriangleProduct(4), func(ctx context.Context, q *query.Q) (int, error) {
			st, err := wcoj.BinaryPlanInto(ctx, q, nil, &rel.CountSink{})
			return st.Work(), err
		}, 64},
	}
}

func family(t *testing.T, name string, size int) *query.Q {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f.Build(scenario.Params{Size: size, Seed: 1})
		}
	}
	t.Fatalf("unknown scenario family %q", name)
	return nil
}

// stepWork bounds the work of one generic-join descent step on q: one scan
// of a child run, probing each other relation once per candidate.
func stepWork(q *query.Q) int {
	most := 0
	for _, r := range q.Rels {
		most = max(most, r.Len())
	}
	return most * len(q.Rels)
}

// TestMeterOnEveryExecutor: every executor charges its whole work to the
// meter, and a limit in ctx stops each of them at its first check past it,
// alone or drawing on the limit with others.
func TestMeterOnEveryExecutor(t *testing.T) {
	for _, ex := range executors(t) {
		total, err := ex.run(context.Background(), ex.q)
		if err != nil || total == 0 {
			t.Fatalf("%s: unlimited run counted %d work: %v", ex.name, total, err)
		}

		// A limit the run fits: the meter's count is the executor's own. A
		// second run on the spent limit stops within one step.
		ctx, l := work.WithLimit(context.Background(), total)
		if got, err := ex.run(ctx, ex.q); err != nil || got != total || l.Spent() != total {
			t.Fatalf("%s: under a limit of its own work: counted %d, charged %d of %d: %v", ex.name, got, l.Spent(), total, err)
		}
		if got, err := ex.run(ctx, ex.q); !errors.Is(err, work.ErrLimit) || got > ex.step {
			t.Fatalf("%s: on a spent limit: %v after %d work; one step is %d", ex.name, err, got, ex.step)
		}

		// Smaller limits: the run stops with the meter's error within one step.
		for _, limit := range []int{1, total / 2} {
			ctx, l := work.WithLimit(context.Background(), limit)
			got, err := ex.run(ctx, ex.q)
			if !errors.Is(err, work.ErrLimit) {
				t.Fatalf("%s: under a limit of %d (its work %d): %v", ex.name, limit, total, err)
			}
			if got <= limit || got > limit+ex.step || l.Spent() != got {
				t.Fatalf("%s: under a limit of %d it counted %d and charged %d; one step is %d", ex.name, limit, got, l.Spent(), ex.step)
			}
		}

		// k concurrent runs sharing half of one run's work.
		const k = 4
		ctx, l = work.WithLimit(context.Background(), total/2)
		var wg sync.WaitGroup
		errs := make([]error, k)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = ex.run(ctx, ex.q)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if !errors.Is(err, work.ErrLimit) {
				t.Fatalf("%s: a run sharing a limit of half its work: %v", ex.name, err)
			}
		}
		if lag := k * (work.ShareQuantum + ex.step); l.Spent() > total/2+lag {
			t.Fatalf("%s: %d runs charged %d to a limit of %d; the lag bound is %d", ex.name, k, l.Spent(), total/2, lag)
		}
	}
}

// TestMeterPollsOnItsCadence: a meter without a limit polls ctx on its first
// check and then once every Interval units, and a cancelled ctx wins over an
// overrun.
func TestMeterPollsOnItsCadence(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var m work.Meter
	if err := m.Check(ctx, 0); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := m.Check(ctx, work.Interval-1); err != nil {
		t.Fatalf("a check inside the interval polled: %v", err)
	}
	if err := m.Check(ctx, work.Interval); !errors.Is(err, context.Canceled) {
		t.Fatalf("a check at the interval: %v", err)
	}

	var lm work.Meter
	lctx, _ := work.WithLimit(ctx, 0)
	lm.Start(lctx, "")
	if err := lm.Check(lctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("a cancelled run past its limit: %v, want the cancellation", err)
	}
}
