package fdq

import (
	"context"
	"testing"
	"time"
)

// gridCatalog returns a catalog whose relation E holds the complete n×n
// grid (in-package twin of the black-box tests' denseCatalog helper).
func gridCatalog(t *testing.T, n int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	rows := make([][]Value, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			rows = append(rows, []Value{int64(i), int64(j)})
		}
	}
	if err := cat.Define("E", []string{"a", "b"}, rows); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestProducerReleasesDerivedContextOnFinish is the timer-leak regression
// test: a Rows whose producer finishes naturally must release the derived
// context — and the governor's WithQueryTimeout timer behind it — without
// the consumer ever calling Next past exhaustion or Close. The test wires
// an iterator exactly as Session.Query does, keeps a handle on the derived
// context, abandons the iterator, and demands the context dies with the
// producer instead of living until the (hour-long) timer fires.
func TestProducerReleasesDerivedContextOnFinish(t *testing.T) {
	ctx := context.Background()
	cat := gridCatalog(t, 4) // 16 rows: fits the channel buffer, producer finishes unconsumed
	s := NewSession(cat, WithGovernor(NewGovernor(WithQueryTimeout(time.Hour))))
	q := Query().Vars("x", "y").Rel("E", "x", "y")

	e, err := s.begin(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if e.cancel == nil {
		t.Fatal("governor timeout did not attach a deadline context")
	}
	// The exact wiring of Session.Query, with the derived context retained.
	rctx, rcancel := context.WithCancel(e.ctx)
	ecancel := e.cancel
	r := newRows(q.vars, ctx, rctx.Done(), func() { rcancel(); ecancel() })
	go r.run(rctx, e)

	// No Next, no Close: the producer finishes on its own and must tear
	// down both the derived context and the deadline context behind it.
	for name, done := range map[string]<-chan struct{}{
		"derived":  rctx.Done(),
		"deadline": e.ctx.Done(),
	} {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s context still live after the producer finished: the query timer leaks until it fires", name)
		}
	}
}

// TestCloseThenParentCancelKeepsCleanError pins the close-vs-cancel
// ordering: a parent context cancelled *after* a clean Close must not
// retroactively turn the iterator's non-error into context.Canceled. The
// producer is parked mid-stream (result ≫ channel buffer) so Close's own
// cancellation is what stops it — the exact case whose context.Canceled
// must stay suppressed.
func TestCloseThenParentCancelKeepsCleanError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cat := gridCatalog(t, 20) // two-hop path: 8000 rows, far over the 64-row buffer
	s := NewSession(cat)
	q := Query().Vars("x", "y", "z").Rel("E", "x", "y").Rel("E", "y", "z")

	rows, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("clean Close reported %v", err)
	}

	cancel() // parent dies after the fact; the closed iterator must not care
	if err := rows.Err(); err != nil {
		t.Fatalf("parent cancel after clean Close retroactively surfaced %v", err)
	}

	// Control: a parent cancelled *before* Close is a real cancellation and
	// must still be reported.
	ctx2, cancel2 := context.WithCancel(context.Background())
	rows2, err := s.Query(ctx2, q)
	if err != nil {
		t.Fatal(err)
	}
	if !rows2.Next() {
		t.Fatalf("no first row: %v", rows2.Err())
	}
	cancel2()
	if err := rows2.Close(); err == nil {
		t.Fatal("cancel before Close reported no error; the external cancellation was swallowed")
	}
}
