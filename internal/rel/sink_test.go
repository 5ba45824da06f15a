package rel

import (
	"slices"
	"testing"
)

func sortedRel(t *testing.T, name string, attrs []int, rows [][]Value) *Relation {
	t.Helper()
	r := New(name, attrs...)
	for _, row := range rows {
		r.Add(row...)
	}
	r.SortDedup()
	return r
}

func TestCollectAndLimitSinks(t *testing.T) {
	src := sortedRel(t, "R", []int{0, 1}, [][]Value{{3, 4}, {1, 2}, {5, 6}, {1, 2}})
	c := NewCollect("out", 0, 1)
	if !Stream(src, c) {
		t.Fatal("collect sink stopped the stream")
	}
	// Adoption fast path: the collector takes over the relation wholesale.
	if c.R != src {
		t.Fatal("empty matching CollectSink should adopt the source relation")
	}
	if c.R.Name != "out" {
		t.Fatalf("adoption should keep the collector's name, got %q", c.R.Name)
	}

	// A non-empty collector appends the source's rows as one block: the
	// source stays its own relation, the rows land behind the collector's,
	// and an index built before the append is not served afterwards.
	c2 := NewCollect("out", 0, 1)
	c2.R.Add(0, 0)
	stale := c2.R.IndexOn(0, 1)
	if !Stream(src, c2) || c2.R == src || c2.R.Len() != 1+src.Len() {
		t.Fatalf("non-empty collector must append, got %d rows", c2.R.Len())
	}
	if !slices.Equal(c2.R.Row(0), Tuple{0, 0}) {
		t.Fatalf("append overwrote the collector's own row: %v", c2.R.Row(0))
	}
	for i := 0; i < src.Len(); i++ {
		if !slices.Equal(c2.R.Row(1+i), src.Row(i)) {
			t.Fatalf("appended row %d = %v, want %v", i, c2.R.Row(1+i), src.Row(i))
		}
	}
	if c2.R.IndexOn(0, 1) == stale {
		t.Fatal("block append kept serving an index built before it")
	}

	// Limit stops the producer exactly at N and delivers the first N rows.
	for _, n := range []int{0, 1, 2, 3, 100} {
		inner := NewCollect("lim", 0, 1)
		lim := Limit(inner, n)
		complete := Stream(src, lim)
		want := min(n, src.Len())
		if lim.Pushed() != want || inner.R.Len() != want {
			t.Fatalf("Limit(%d): pushed %d rows, want %d", n, inner.R.Len(), want)
		}
		if complete != (n > src.Len()) {
			t.Fatalf("Limit(%d): complete=%v", n, complete)
		}
		for i := 0; i < want; i++ {
			if !slices.Equal(inner.R.Row(i), src.Row(i)) {
				t.Fatalf("Limit(%d): row %d = %v, want prefix row %v", n, i, inner.R.Row(i), src.Row(i))
			}
		}
	}
}

func TestCountSink(t *testing.T) {
	src := sortedRel(t, "R", []int{0}, [][]Value{{1}, {2}, {3}})
	var c CountSink
	if !Stream(src, &c) || c.N != 3 {
		t.Fatalf("CountSink counted %d, want 3", c.N)
	}
}

func TestChanSinkDeliversCopiesAndStops(t *testing.T) {
	stop := make(chan struct{})
	s := &ChanSink{C: make(chan Tuple, 1), Stop: stop}

	scratch := Tuple{7, 8}
	if !s.Push(scratch) {
		t.Fatal("push into buffered channel should succeed")
	}
	scratch[0] = 99 // producer reuses its buffer; the sink must have copied
	got := <-s.C
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("ChanSink delivered an aliased row: %v", got)
	}

	// Fill the buffer, then close Stop: the blocked push must return false.
	if !s.Push(Tuple{1, 1}) {
		t.Fatal("second push should fill the buffer")
	}
	done := make(chan bool)
	go func() { done <- s.Push(Tuple{2, 2}) }()
	close(stop)
	if ok := <-done; ok {
		t.Fatal("push blocked on a full channel must stop once Stop closes")
	}
	if s.Push(Tuple{3, 3}) {
		t.Fatal("push after Stop closed must report stop")
	}
}

func TestMergeSortedIntoMatchesMergeSorted(t *testing.T) {
	a := sortedRel(t, "A", []int{0, 1}, [][]Value{{1, 1}, {3, 3}, {5, 5}})
	b := sortedRel(t, "B", []int{0, 1}, [][]Value{{2, 2}, {3, 3}, {6, 6}})
	c := sortedRel(t, "C", []int{0, 1}, nil)
	srcs := []*Relation{a, b, c}

	want := MergeSorted("Q", srcs)
	sink := NewCollect("Q", 0, 1)
	sink.R.Grow(1) // defeat adoption so the merge path itself is exercised
	if !MergeSortedInto(sink, srcs) {
		t.Fatal("collect sink stopped the merge")
	}
	if !Identical(want, sink.R) {
		t.Fatalf("MergeSortedInto differs from MergeSorted: %v vs %v", sink.R.Rows(), want.Rows())
	}

	// Early stop: a limit of 2 sees exactly the first 2 merged rows.
	lim := Limit(NewCollect("Q", 0, 1), 2)
	if MergeSortedInto(lim, srcs) {
		t.Fatal("limited merge should report an early stop")
	}
	inner := lim.S.(*CollectSink).R
	if inner.Len() != 2 || !slices.Equal(inner.Row(0), want.Row(0)) || !slices.Equal(inner.Row(1), want.Row(1)) {
		t.Fatalf("limited merge rows %v, want prefix of %v", inner.Rows(), want.Rows())
	}
}

func TestMergeSortedIntoZeroArity(t *testing.T) {
	a := New("A")
	a.Add()
	b := New("B")
	var c CountSink
	if !MergeSortedInto(&c, []*Relation{b, a}) || c.N != 1 {
		t.Fatalf("zero-arity merge pushed %d rows, want 1", c.N)
	}
	var c2 CountSink
	if !MergeSortedInto(&c2, []*Relation{New("E")}) || c2.N != 0 {
		t.Fatalf("empty zero-arity merge pushed %d rows, want 0", c2.N)
	}
}

func TestWithAttrsSharesStorage(t *testing.T) {
	r := sortedRel(t, "R", []int{0, 1}, [][]Value{{1, 2}, {3, 4}})
	v := r.WithAttrs("V", 5, 2)
	if v.Len() != 2 || v.Arity() != 2 {
		t.Fatalf("view shape wrong: %d rows arity %d", v.Len(), v.Arity())
	}
	if v.Value(0, 5) != 1 || v.Value(0, 2) != 2 {
		t.Fatalf("view remaps attrs wrongly: %v", v.Row(0))
	}
	if &v.data[0] != &r.data[0] {
		t.Fatal("view must share flat storage")
	}
}
