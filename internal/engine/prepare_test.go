package engine

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/csma"
	"repro/internal/naive"
	"repro/internal/paper"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
)

// Prepare must not build the FD lattice: planner rule 1 (no FDs, no degree
// bounds) never reads it, and on an FD-free query it has 2^k elements. The
// build is detected by the heap bytes it allocates: the 4096-element lattice
// of a 12-variable path costs about 1.7 MB, while prepare, plan and run of
// the whole query without it allocate about 340 KB.
func TestPrepareLeavesLatticeToItsFirstReader(t *testing.T) {
	for _, tc := range []struct {
		name string
		rows int
		want Algorithm
	}{
		{"fd-free", 8, AlgGenericJoin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := scenario.PathQuery(12, tc.rows, 1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			p, err := Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := p.Bind(nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Plan().Algorithm; got != tc.want {
				t.Fatalf("planned %s, want %s", got, tc.want)
			}
			if _, _, err := b.Run(context.Background(), &Options{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("prepare+plan+run of a 12-variable FD-free path allocated %d KB: something built the 4096-element lattice", alloc>>10)
			}
			if d > time.Second {
				t.Fatalf("prepare+plan+run of a 12-variable FD-free path took %v: something built the 4096-element lattice", d)
			}
		})
	}
}

// With the build left to the first reader, concurrent first Runs of
// different instances of one FD shape race to it; they must end up sharing
// one lattice (and, under -race, build it without a data race).
func TestConcurrentFirstRunsShareOneLattice(t *testing.T) {
	p, err := Prepare(paper.Fig1QuasiProduct(16))
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{8, 16, 27, 32, 64, 125}
	bounds := make([]*Bound, len(sizes))
	wants := make([]*rel.Relation, len(sizes))
	for i, n := range sizes {
		inst := paper.Fig1QuasiProduct(n)
		if bounds[i], err = p.Bind(inst.Rels); err != nil {
			t.Fatal(err)
		}
		wants[i] = naive.Evaluate(inst)
	}
	outs := make([]*rel.Relation, len(sizes))
	errs := make([]error, len(sizes))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range bounds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			outs[i], _, errs[i] = bounds[i].Run(context.Background(), &Options{Workers: 1})
		}(i)
	}
	close(start)
	wg.Wait()
	shared := p.Query().Lattice()
	for i := range bounds {
		if errs[i] != nil {
			t.Fatalf("size %d: %v", sizes[i], errs[i])
		}
		if !rel.Equal(outs[i], wants[i]) {
			t.Errorf("size %d: wrong answer", sizes[i])
		}
		if bounds[i].Query().Lattice() != shared {
			t.Errorf("size %d: instance has its own lattice", sizes[i])
		}
	}
}

// The planner consults the CLLP bound and CSMA executes from the CLLP's dual:
// one solve must serve both, so after Plan() the CSM plan is already in the
// record slot csma.PlanFor reads, shared by every instance of those sizes,
// and it is the plan's own artifact.
func TestPlannerSolvesTheCLLPForCSMA(t *testing.T) {
	q, _ := paper.Fig9Instance(64)
	b := bind(t, q)
	pl := b.Plan()
	if pl.Algorithm != AlgCSMA {
		t.Fatalf("want csma, got %s (%s)", pl.Algorithm, pl.Reason)
	}
	if n := testing.AllocsPerRun(10, func() { csma.PlanFor(b.Query()) }); n != 0 {
		t.Fatalf("csma.PlanFor after Plan() allocated %v times: the first CSMA run will solve the CLLP again", n)
	}
	memo := csma.PlanFor(b.Query())
	if pl.CSM != memo {
		t.Fatal("the plan carries another CSM plan than the record's")
	}
	if got, _ := memo.CLLP.LogBound.Float64(); got != pl.LogBound {
		t.Fatalf("recorded CLLP bound 2^%v, plan says 2^%v", got, pl.LogBound)
	}
	if again := csma.PlanFor(q.WithFreshRels(q.Rels)); again != memo {
		t.Fatal("another instance of the same shape and sizes solved its own CLLP")
	}
}

// An explicit SM request and smalg.RunInto with no proof run from the
// planner's own LLP solution and proof: after Plan() both sit in the slots
// SMA reads, and no run solves or searches again.
func TestExplicitSMRunsThePlannersProof(t *testing.T) {
	q, _ := paper.Fig4Instance(216)
	b := bind(t, q)
	pl := b.Plan()
	if pl.Algorithm != AlgSM {
		t.Fatalf("want sm, got %s (%s)", pl.Algorithm, pl.Reason)
	}
	if n := testing.AllocsPerRun(10, func() { smalg.LLP(q); smalg.GoodProof(q) }); n != 0 {
		t.Fatalf("reading the LLP and proof after Plan() allocated %v times: the planner did not leave them for SMA", n)
	}
	llp, proof := smalg.LLP(q), smalg.GoodProof(q)
	if pl.LLP != llp || pl.Proof != proof {
		t.Fatal("the plan carries another LLP solution or proof than the record's")
	}
	out, _, err := b.Run(context.Background(), &Options{Algorithm: AlgSM})
	if err != nil {
		t.Fatal(err)
	}
	if !rel.Equal(out, naive.Evaluate(q)) {
		t.Fatal("explicit sm: wrong answer")
	}
	st, err := smalg.RunInto(context.Background(), q, nil, nil, &rel.CountSink{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Proof != proof || smalg.LLP(q) != llp || smalg.GoodProof(q) != proof {
		t.Fatal("a run solved the LLP or searched the proof again")
	}
}
