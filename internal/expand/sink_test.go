package expand

import (
	"context"
	"testing"

	"repro/internal/paper"
	"repro/internal/rel"
)

func TestExpandRelationIntoMatchesExpandRelation(t *testing.T) {
	q := paper.Fig1QuasiProduct(16)
	e := New(q)
	r := q.Rels[0] // R(x, y); closure adds u via f(x,z)? only x-determined FDs apply
	target := q.FDs.Closure(r.VarSet())

	ctx := context.Background()
	want, err := e.ExpandRelation(ctx, r, target)
	if err != nil {
		t.Fatal(err)
	}
	sink := rel.NewCollect("out", target.Members()...)
	if ok, err := e.ExpandRelationInto(ctx, r, target, sink); !ok || err != nil {
		t.Fatalf("collect sink stopped the stream (err %v)", err)
	}
	if !rel.Identical(want, sink.R) {
		t.Fatalf("ExpandRelationInto differs: %d vs %d rows", sink.R.Len(), want.Len())
	}

	// A limiting sink stops the flush and reports the early stop.
	lim := rel.Limit(rel.NewCollect("out", target.Members()...), 1)
	if ok, err := e.ExpandRelationInto(ctx, r, target, lim); ok || err != nil {
		t.Fatalf("limited stream should report an early stop (err %v)", err)
	}
	if lim.Pushed() != 1 {
		t.Fatalf("limited stream delivered %d rows", lim.Pushed())
	}
}
