package expand_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/expand"
	"repro/internal/fd"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
	"repro/internal/varset"
)

// runExecutors runs the three FD executors on q, each where it applies (the
// chain algorithm needs a good chain, SMA a good proof, CSMA a bounded
// CLLP), and reports how many ran.
func runExecutors(t *testing.T, q *query.Q) int {
	t.Helper()
	ctx := context.Background()
	want := naive.Evaluate(q)
	ran := 0
	for name, run := range map[string]func(rel.Sink) error{
		"chain": func(s rel.Sink) error { _, err := chainalg.RunInto(ctx, q, nil, s); return err },
		"sm":    func(s rel.Sink) error { _, err := smalg.RunInto(ctx, q, nil, nil, s); return err },
		"csma":  func(s rel.Sink) error { _, err := csma.RunInto(ctx, q, nil, s); return err },
	} {
		out := rel.NewCollect("Q", q.AllVars().Members()...)
		if err := run(out); err != nil {
			continue
		}
		ran++
		if !rel.Identical(out.R, want) {
			t.Fatalf("%s: %d rows, the reference has %d", name, out.R.Len(), want.Len())
		}
	}
	return ran
}

func family(t *testing.T, name string) *scenario.Family {
	t.Helper()
	for _, f := range scenario.Catalog() {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("no catalog family %q", name)
	return nil
}

// TestProgramMatchesExtend: on every catalog family, every program the three
// executors compile — and its known-free twin, which assumes nothing — gives
// the verdict and the derived values of the dynamic Extend started from the
// same bound set. The tuples are cut from reference output rows: whole rows
// (consistent), rows whose second known part comes from another output row
// agreeing on the overlap (each part consistent on its own, the pair often
// not — the only corruption a known set's promise allows), and, for the
// known-free twin, rows with any value replaced.
func TestProgramMatchesExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	programs, rejected := 0, 0
	for _, f := range scenario.Catalog() {
		q := f.Build(f.Small[0])
		if runExecutors(t, q) == 0 {
			continue
		}
		ref := naive.Evaluate(q) // attribute c is variable c
		if ref.Len() == 0 {
			t.Fatalf("%s: empty reference output", f.Name)
		}
		e := expand.New(q)
		dyn, run := make([]expand.Value, q.K), make([]expand.Value, q.K)
		check := func(p *expand.Program, tuple []expand.Value) {
			have, known, bound := p.Shape()
			for v := range dyn {
				dyn[v], run[v] = -1, -2 // unbound positions must not be read
				if have.Contains(v) {
					dyn[v], run[v] = tuple[v], tuple[v]
				}
			}
			got, ok := e.Extend(dyn, have)
			if e.Run(p, run) != ok {
				t.Fatalf("%s: program for %v says %v on %v, Extend %v", f.Name, have, !ok, tuple, ok)
			}
			if !ok {
				rejected += len(known) / 2 // count the executors' own two-sided programs only
				return
			}
			if got != bound {
				t.Fatalf("%s: program for %v binds %v, Extend %v", f.Name, have, bound, got)
			}
			for _, v := range bound.Members() {
				if dyn[v] != run[v] {
					t.Fatalf("%s: program for %v derives %d for variable %d, Extend %d", f.Name, have, run[v], v, dyn[v])
				}
			}
		}
		for _, p := range expand.For(q).Programs() {
			programs++
			have, known, _ := p.Shape()
			free := e.Program(have, have)
			// Output rows by their values on the overlap of the known sets.
			overlap := varset.Empty
			if len(known) == 2 {
				overlap = known[0].Intersect(known[1])
			}
			key := func(row rel.Tuple) string {
				var k []expand.Value
				for _, v := range overlap.Members() {
					k = append(k, row[v])
				}
				return fmt.Sprint(k)
			}
			byOverlap := map[string][]int{}
			for i := 0; i < ref.Len(); i++ {
				byOverlap[key(ref.Row(i))] = append(byOverlap[key(ref.Row(i))], i)
			}
			tuple := make([]expand.Value, q.K)
			for n := 0; n < 200; n++ {
				a := ref.Row(rng.Intn(ref.Len()))
				copy(tuple, a)
				check(p, tuple)
				check(free, tuple)
				if len(known) == 2 {
					peers := byOverlap[key(a)]
					b := ref.Row(peers[rng.Intn(len(peers))])
					for _, v := range known[1].Members() {
						tuple[v] = b[v]
					}
					check(p, tuple)
					check(free, tuple)
				}
				v := have.Members()[rng.Intn(have.Len())]
				tuple[v] = ref.Row(rng.Intn(ref.Len()))[v] + expand.Value(rng.Intn(2))
				check(free, tuple)
			}
		}
	}
	if programs < 100 || rejected < 500 {
		t.Fatalf("%d programs checked, %d mismatched pairs rejected: the test lost its coverage", programs, rejected)
	}
}

// TestTablesAreConsistentOnTheirOwnVariables is the invariant a program's
// known sets rest on: every table the chain algorithm, SMA and CSMA hand from
// one step to the next — an R_j⁺, a projection of one onto a closed set, a
// subset of one, or the output of an expansion — satisfies every FD inside
// its own variables. Under the record's verify hook, each tuple entering a
// program must pass, on each known set alone, the dynamic Extend started
// from that set. One corrupted row of a sealed R_j⁺ must trip it.
func TestTablesAreConsistentOnTheirOwnVariables(t *testing.T) {
	watch := func(q *query.Q) *int {
		bad := new(int)
		expand.For(q).SetVerify(func(p *expand.Program, vals []expand.Value) {
			_, known, _ := p.Shape()
			part := make([]expand.Value, len(vals))
			for _, k := range known {
				copy(part, vals)
				if _, ok := expand.New(q).Extend(part, k); !ok {
					*bad++
				}
			}
		})
		return bad
	}
	for _, f := range scenario.Catalog() {
		q := f.Build(f.Small[0])
		bad := watch(q)
		runExecutors(t, q)
		if *bad > 0 {
			t.Errorf("%s: %d tuples entered a program inconsistent on a known set", f.Name, *bad)
		}
	}

	// The hook has teeth: give row 0 of an R_j⁺ another row's value for a
	// derived variable (wrong for row 0, yet one that joins on) before any run.
	// Whether the row then reaches a program depends on the plan — a hash join
	// on the derived variable drops it first, as SMA's do on every catalog
	// family — so each case names an executor that enumerates it.
	ctx := context.Background()
	for _, tc := range []struct {
		fam string
		run func(*query.Q) error
	}{
		{"paper/simple-fd-chain", func(q *query.Q) error { _, err := chainalg.RunInto(ctx, q, nil, &rel.CountSink{}); return err }},
		{"paper/four-cycle-key", func(q *query.Q) error { _, err := csma.RunInto(ctx, q, nil, &rel.CountSink{}); return err }},
	} {
		f := family(t, tc.fam)
		q := f.Build(f.Small[0])
		bad := watch(q)
		broken := false
		for j, r := range q.Rels {
			closed, err := expand.New(q).Closed(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			if derived := closed.VarSet().Diff(r.VarSet()); !broken && !derived.IsEmpty() {
				c := closed.Col(derived.Min())
				closed.Row(0)[c] = closed.Row(closed.Len() - 1)[c]
				broken = true
			}
		}
		if !broken {
			t.Fatalf("%s: no R_j⁺ carries a derived variable: nothing to corrupt", tc.fam)
		}
		if err := tc.run(q); err != nil {
			t.Fatal(err)
		}
		if *bad == 0 {
			t.Errorf("%s: a corrupted sealed row entered the programs unnoticed: the hook checks nothing", tc.fam)
		}
	}
}

// TestEachFDFiresOncePerTuple pins the UDF calls of a warm run on the three
// instances whose FDs are all computed: an FD already satisfied inside one
// half of a joined tuple is not fired again for the pair, and no final pass
// re-fires them all. Before programs the same runs made, in table order,
// 1728, 3456, 3456, 6336, 18432, 12288, 16125 and 32250 calls (M3's three FDs
// each span both halves of every chain step, so its chain run had nothing to
// skip; Fig. 9 has no SM proof).
func TestEachFDFiresOncePerTuple(t *testing.T) {
	ctx := context.Background()
	chain := func(q *query.Q) error { _, err := chainalg.RunInto(ctx, q, nil, &rel.CountSink{}); return err }
	sm := func(q *query.Q) error { _, err := smalg.RunInto(ctx, q, nil, nil, &rel.CountSink{}); return err }
	csm := func(q *query.Q) error { _, err := csma.RunInto(ctx, q, nil, &rel.CountSink{}); return err }
	for i, tc := range []struct {
		fam  string
		size int
		run  func(q *query.Q) error
		want int
	}{
		{"paper/m3-mod", 24, chain, 1728}, {"paper/m3-mod", 24, sm, 1728}, {"paper/m3-mod", 24, csm, 1728},
		{"paper/fig4", 64, chain, 4608}, {"paper/fig4", 64, sm, 9216}, {"paper/fig4", 64, csm, 6144},
		{"paper/fig9", 32, chain, 12625}, {"paper/fig9", 32, csm, 18000},
	} {
		q := family(t, tc.fam).Build(scenario.Params{Size: tc.size})
		calls := 0
		for _, f := range q.FDs.FDs {
			for v, fn := range f.Fns {
				f.Fns[v] = func(args []fd.Value) fd.Value { calls++; return fn(args) }
			}
		}
		for warm := 0; warm < 2; warm++ { // the first run builds the record, the second is warm
			calls = 0
			if err := tc.run(q); err != nil {
				t.Fatalf("%s: %v", tc.fam, err)
			}
		}
		if calls != tc.want {
			t.Errorf("%s@%d, case %d: a warm run calls the UDFs %d times, want %d", tc.fam, tc.size, i, calls, tc.want)
		}
	}
}
