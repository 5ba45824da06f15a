package expand

import (
	"context"
	"testing"

	"repro/internal/paper"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/varset"
)

func TestExtendUDF(t *testing.T) {
	q := paper.Fig1() // xz → u via f(x,z)=x; yu → x via g(y,u)=u
	e := New(q)
	vals := make([]Value, 4)
	vals[0], vals[2] = 7, 3 // x=7, z=3
	have, ok := e.Extend(vals, varset.Of(0, 2))
	if !ok {
		t.Fatal("extension should succeed")
	}
	if !have.Contains(3) || vals[3] != 7 {
		t.Fatalf("u should become f(x,z)=x=7, got %v (have %v)", vals[3], have)
	}
}

func TestExtendInconsistent(t *testing.T) {
	q := paper.Fig1()
	e := New(q)
	vals := make([]Value, 4)
	vals[0], vals[2], vals[3] = 7, 3, 9 // u=9 but f(x,z)=7
	if _, ok := e.Extend(vals, varset.Of(0, 2, 3)); ok {
		t.Fatal("inconsistent tuple must be rejected")
	}
}

func TestExtendChained(t *testing.T) {
	// Fig1: from {y,z,u}, yu→x fires, then xz→u must stay consistent.
	q := paper.Fig1()
	e := New(q)
	vals := make([]Value, 4)
	vals[1], vals[2], vals[3] = 1, 2, 5 // y,z,u; x := g(y,u) = u = 5; f(x,z)=5 = u ✓
	have, ok := e.Extend(vals, varset.Of(1, 2, 3))
	if !ok || !have.Contains(0) || vals[0] != 5 {
		t.Fatalf("x should be derived as 5, got %v ok=%v", vals[0], ok)
	}
}

func TestGuardedExpansion(t *testing.T) {
	q := paper.FourCycleWithKey(4) // y → z guarded in S, with z = y
	e := New(q)
	vals := make([]Value, 4)
	vals[1] = 2
	have, ok := e.Extend(vals, varset.Of(1))
	if !ok || !have.Contains(2) || vals[2] != 2 {
		t.Fatalf("z should be looked up from S: got %v ok=%v", vals[2], ok)
	}
	// A y-value absent from S drops the tuple.
	vals[1] = 99
	if _, ok := e.Extend(vals, varset.Of(1)); ok {
		t.Fatal("missing guard key must drop the tuple")
	}
}

func TestExpandRelation(t *testing.T) {
	q := paper.Fig1()
	r := rel.New("R2", 0, 2) // over x, z
	r.Add(1, 2)
	r.Add(3, 4)
	e := New(q)
	out, err := e.ExpandRelation(context.Background(), r, q.FDs.Closure(r.VarSet()))
	if err != nil {
		t.Fatal(err)
	}
	// closure({x,z}) = {x,z,u}; u = x.
	if out.VarSet() != varset.Of(0, 2, 3) {
		t.Fatalf("expanded vars = %v", out.VarSet())
	}
	if out.Len() != 2 {
		t.Fatalf("expanded len = %d", out.Len())
	}
	if out.Value(0, 3) != out.Value(0, 0) {
		t.Fatal("u must equal x after expansion")
	}
}

func TestExpandTuplePanicsOnUnderivable(t *testing.T) {
	q := paper.Fig1()
	e := New(q)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for underivable target")
		}
	}()
	vals := make([]Value, 4)
	e.ExpandTuple(vals, varset.Of(0), varset.Of(0, 1)) // y not derivable from x
}

// TestExtendAllocatesNothing: a guard lookup allocates at no key width — the
// single-variable key y→z and the composite key xy→z, probed with a key the
// guard holds and one it does not — and neither does a UDF step.
func TestExtendAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		q    *query.Q
		have varset.Set
		hit  []Value // values of the have variables, ascending, present in the guard
	}{
		{"single", paper.FourCycleWithKey(400), varset.Of(1), []Value{7}},
		{"wide", paper.CompositeKey(12, 400), varset.Of(0, 1), []Value{3, 5}},
		{"udf", paper.Fig1(), varset.Of(0, 2), []Value{7, 3}},
	} {
		e := New(tc.q)
		vals := make([]Value, tc.q.K)
		for _, miss := range []bool{false, true} {
			for i, v := range tc.have.Members() {
				vals[v] = tc.hit[i]
				if miss {
					vals[v] += 1 << 40
				}
			}
			wantOK := !miss || tc.name == "udf"
			if _, ok := e.Extend(vals, tc.have); ok != wantOK {
				t.Fatalf("%s (miss=%v): Extend ok=%v", tc.name, miss, ok)
			}
			if allocs := testing.AllocsPerRun(100, func() { e.Extend(vals, tc.have) }); allocs != 0 {
				t.Fatalf("%s (miss=%v): Extend allocates %v times per call, want 0", tc.name, miss, allocs)
			}
		}
	}
}

// TestRecordServesSealedRelations: R_j⁺ and its projections are built once
// per instance and handed out by identity; a table the record does not own
// is projected afresh; a re-bound instance starts from an empty record.
func TestRecordServesSealedRelations(t *testing.T) {
	ctx := context.Background()
	q := paper.Fig1QuasiProduct(16)
	e1, e2 := New(q), New(q)
	c1, err := e1.Closed(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c2, _ := e2.Closed(ctx, 0); c2 != c1 {
		t.Fatal("two Expanders of one instance built R_0⁺ twice")
	}
	want, _ := e1.ExpandRelation(ctx, q.Rels[0], q.FDs.Closure(q.Rels[0].VarSet()))
	if !rel.Identical(c1, want) {
		t.Fatal("the record's R_0⁺ differs from a fresh expansion")
	}
	x := varset.Single(c1.Attrs[0])
	p1 := e1.Project(c1, x)
	if !rel.Identical(p1, c1.Project(x)) {
		t.Fatal("the record's projection differs from rel.Project")
	}
	if e2.Project(c1, x) != p1 || e2.Project(p1, x) != p1 {
		t.Fatal("a sealed projection was rebuilt")
	}
	if e1.Project(c1, c1.VarSet()) != c1 {
		t.Fatal("projecting a sealed relation onto all its variables must return it")
	}
	builds := For(q).Builds()
	own := c1.Clone()
	if e1.Project(own, x) == p1 {
		t.Fatal("a table the record does not own was served from it")
	}
	if For(q).Builds() != builds {
		t.Fatal("projecting a foreign table touched the record")
	}
	if c3, _ := New(q.WithFreshRels(q.Rels)).Closed(ctx, 0); c3 == c1 {
		t.Fatal("a re-bound instance was served the previous instance's R_0⁺")
	}
}

func TestDegreeClasses(t *testing.T) {
	r := rel.New("R", 0, 1)
	// Value 1 has degree 4, value 2 degree 1: two classes (2 and 0).
	r.Add(1, 10)
	r.Add(1, 11)
	r.Add(1, 12)
	r.Add(1, 13)
	r.Add(2, 20)
	cs := New(paper.Triangle()).DegreeClasses(r, r.VarSet().Remove(1))
	if len(cs) != 2 {
		t.Fatalf("got %d classes, want 2", len(cs))
	}
	if cs[0].MaxDeg != 1 || cs[1].MaxDeg != 4 {
		t.Fatalf("max degrees %d, %d; want 1, 4 (class order)", cs[0].MaxDeg, cs[1].MaxDeg)
	}
	if total := cs[0].Table.Len() + cs[1].Table.Len(); total != 5 {
		t.Fatalf("classes must partition the table, total %d", total)
	}
}
