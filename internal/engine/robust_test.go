package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/fd"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/varset"
)

// boomQuery is a triangle query R(x,y), S(y,z), T(z,x) with a UDF FD
// xy → w that panics while fire is true — a stand-in for a buggy
// user-supplied function.
func boomQuery(n int, fire *bool) *query.Q {
	q := query.New("x", "y", "z", "w")
	r := rel.New("R", 0, 1)
	s := rel.New("S", 1, 2)
	tt := rel.New("T", 2, 0)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.Add(int64(i), int64(j))
			s.Add(int64(i), int64(j))
			tt.Add(int64(i), int64(j))
		}
	}
	q.AddRel(r)
	q.AddRel(s)
	q.AddRel(tt)
	q.FDs.Add(varset.Of(0, 1), varset.Of(3), -1, map[int]fd.UDF{3: func(args []int64) int64 {
		if *fire {
			panic("boom: injected UDF failure")
		}
		return args[0] + args[1]
	}})
	return q
}

func bind(t *testing.T, q *query.Q) *Bound {
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

// TestUDFPanicIsolatedSequential: a panicking UDF surfaces as a typed
// *PanicError from the sequential path, and the same Bound runs clean once
// the UDF behaves.
func TestUDFPanicIsolatedSequential(t *testing.T) {
	fire := true
	q := boomQuery(8, &fire)
	b := bind(t, q)
	_, _, err := b.Run(context.Background(), &Options{Workers: 1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if !strings.Contains(pe.Error(), "boom") || len(pe.Stack) == 0 {
		t.Fatalf("panic error lost its payload: %v (stack %d bytes)", pe, len(pe.Stack))
	}
	fire = false
	out, _, err := b.Run(context.Background(), &Options{Workers: 1})
	if err != nil {
		t.Fatalf("clean re-run failed: %v", err)
	}
	if !rel.Equal(out, naive.Evaluate(q)) {
		t.Fatal("clean re-run output differs from reference")
	}
}

// TestUDFPanicIsolatedParallel: the panic fires inside partition worker
// goroutines; every worker must recover, siblings must be cancelled, and
// the caller sees one *PanicError — never a crashed process.
func TestUDFPanicIsolatedParallel(t *testing.T) {
	fire := true
	q := boomQuery(16, &fire)
	b := bind(t, q)
	_, _, err := b.Run(context.Background(), &Options{Workers: 4, MinParallelRows: 1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError from parallel run, got %v", err)
	}
	fire = false
	out, st, err := b.Run(context.Background(), &Options{Workers: 4, MinParallelRows: 1})
	if err != nil {
		t.Fatalf("clean re-run failed: %v", err)
	}
	if st.Workers != 4 {
		t.Fatalf("clean re-run did not go parallel (workers=%d)", st.Workers)
	}
	if !rel.Equal(out, naive.Evaluate(q)) {
		t.Fatal("clean re-run output differs from reference")
	}
}

// TestMemLimitSequential: a tight MemLimitBytes aborts a streaming run
// with *MemLimitError; an ample one lets it complete and reports MemBytes.
func TestMemLimitSequential(t *testing.T) {
	q := scenario.AGMProduct(16, 1)
	b := bind(t, q)
	var c rel.CountSink
	_, err := b.RunInto(context.Background(), &Options{Workers: 1, MemLimitBytes: 256}, &c)
	var me *MemLimitError
	if !errors.As(err, &me) {
		t.Fatalf("want *MemLimitError, got %v", err)
	}
	if me.Used <= me.Limit {
		t.Fatalf("trip accounting inconsistent: used %d ≤ limit %d", me.Used, me.Limit)
	}
	var c2 rel.CountSink
	st, err := b.RunInto(context.Background(), &Options{Workers: 1, MemLimitBytes: 1 << 30}, &c2)
	if err != nil {
		t.Fatalf("ample budget failed: %v", err)
	}
	if st.MemBytes <= 0 {
		t.Fatal("MemBytes not accounted on successful run")
	}
}

// TestMemLimitParallel: on the morsel path a charge past the limit — a
// partition's buffered row or a delivered one, on the run's one gauge —
// cancels the whole group and fails the run with *MemLimitError, and the
// Bound runs clean afterwards.
func TestMemLimitParallel(t *testing.T) {
	q := scenario.AGMProduct(24, 1)
	b := bind(t, q)
	out, _, err := b.Run(context.Background(), &Options{Workers: 3, MinParallelRows: 1, MemLimitBytes: 512})
	var me *MemLimitError
	if !errors.As(err, &me) {
		t.Fatalf("want *MemLimitError from parallel run, got %v (out=%v)", err, out)
	}
	want := naive.Evaluate(q)
	out, _, err = b.Run(context.Background(), &Options{Workers: 3, MinParallelRows: 1})
	if err != nil {
		t.Fatalf("ungoverned re-run failed: %v", err)
	}
	if !rel.Equal(out, want) {
		t.Fatal("re-run output differs from reference")
	}
}

// TestMemLimitCoversBuffersPlusDeliveries: one limit covers partition
// buffers plus deliveries, summed. An explicit chain run on Fig1Skew(512)
// at three workers buffers every morsel and then delivers every row, so
// its gauge reaches twice the output's bytes: under any limit below that
// the run fails, though buffers and deliveries would each fit alone, and
// under an ample limit it succeeds with MemBytes the documented sum.
func TestMemLimitCoversBuffersPlusDeliveries(t *testing.T) {
	ctx := context.Background()
	b := bind(t, paper.Fig1Skew(512))
	want, _, err := b.Run(ctx, &Options{Algorithm: AlgChain, Workers: 1})
	if err != nil || want.Len() < 512 {
		t.Fatalf("sequential chain run: %d rows, %v", want.Len(), err)
	}
	outBytes := tupleBytes(want.Len(), 4)
	opts := func(limit int64) *Options {
		return &Options{Algorithm: AlgChain, Workers: 3, MinParallelRows: 1, MemLimitBytes: limit}
	}
	for _, tenths := range []int64{11, 15, 19} {
		limit := outBytes * tenths / 10
		for _, sink := range []rel.Sink{rel.NewCollect("Q", 0, 1, 2, 3), &rel.CountSink{}} {
			st, err := b.RunInto(ctx, opts(limit), sink)
			var me *MemLimitError
			if !errors.As(err, &me) || me.Limit != limit || me.Used <= limit || st.MemBytes != me.Used {
				t.Fatalf("%T under %d.%d× the output's bytes: %v, stats %+v", sink, tenths/10, tenths%10, err, st)
			}
		}
	}
	limit := 4 * outBytes
	out, st, err := b.Run(ctx, opts(limit))
	if err != nil {
		t.Fatalf("ample limit: %v", err)
	}
	if st.Workers != 3 || st.Morsels < 3 {
		t.Fatalf("parallelism not exercised: %+v", st)
	}
	if st.MemBytes > limit || st.MemBytes != 2*outBytes {
		t.Fatalf("MemBytes %d, want buffers plus deliveries %d within the limit %d", st.MemBytes, 2*outBytes, limit)
	}
	if !rel.Identical(out, want) {
		t.Fatal("governed parallel output differs from the sequential one")
	}
}

// TestInjectedWorkerPanicFailsFast: arm the partition-worker site so one
// worker panics; the run must fail with the injected panic and the Bound
// must still produce byte-identical results afterwards.
func TestInjectedWorkerPanicFailsFast(t *testing.T) {
	defer faultinject.Reset()
	q := scenario.AGMProduct(16, 1)
	b := bind(t, q)
	want := naive.Evaluate(q)

	faultinject.Arm(faultinject.SitePartitionWorker, faultinject.Fault{Kind: faultinject.KindPanic, Times: 1})
	_, _, err := b.Run(context.Background(), &Options{Workers: 3, MinParallelRows: 1})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if inj, ok := pe.Value.(faultinject.Injected); !ok || inj.Site != faultinject.SitePartitionWorker {
		t.Fatalf("panic value %#v is not the injected fault", pe.Value)
	}
	faultinject.Reset()

	out, _, err := b.Run(context.Background(), &Options{Workers: 3, MinParallelRows: 1})
	if err != nil {
		t.Fatalf("clean re-run failed: %v", err)
	}
	if !rel.Identical(out, want) {
		t.Fatal("clean re-run not byte-identical to reference")
	}
}
