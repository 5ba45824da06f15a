package rel

import (
	"slices"
	"testing"
	"time"
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

// TestBlockSink pins the hand-off contract fdq.Rows and fdqd stand on.
func TestBlockSink(t *testing.T) {
	// pushN pushes rows {i, i} for i in [from, to) and fails on a stop.
	pushN := func(t *testing.T, s *BlockSink, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if !s.Push(Tuple{Value(i), Value(i)}) {
				t.Fatalf("push %d stopped", i)
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"delivered rows are copies", func(t *testing.T) {
			s := NewBlockSink(nil)
			scratch := Tuple{0, 0}
			if !s.Push(scratch) {
				t.Fatal("first push stopped")
			}
			scratch[0] = 99 // the producer reuses its buffer; the sink must have copied
			// Buffers rotate, but never onto the block the consumer holds:
			// hold each block in turn while the producer runs as far ahead as
			// it can, and the held rows must still read as pushed.
			held, first, pushed := <-s.C, 0, 1
			for range 3 * len(s.bufs) {
				for len(s.C) < cap(s.C) { // fill the queue...
					pushN(t, s, pushed, pushed+1)
					pushed++
				}
				pushN(t, s, pushed, pushed+s.size-1) // ...and the block behind it, one row short of parking
				pushed += s.size - 1
				for i := 0; i < held.N; i++ {
					if want := Value(first + i); held.Vals[2*i] != want || held.Vals[2*i+1] != want {
						t.Fatalf("held row %d reads %v after the producer ran ahead", first+i, held.Vals[2*i:2*i+2])
					}
				}
				first += held.N
				held = <-s.C
			}
		}},
		{"stop unblocks a parked hand-off", func(t *testing.T) {
			stop := make(chan struct{})
			s := NewBlockSink(stop)
			pushN(t, s, 0, 341-1) // four blocks queued, the fifth one row short
			parked := make(chan bool)
			go func() { parked <- s.Push(Tuple{0, 0}) }()
			select {
			case ok := <-parked:
				t.Fatalf("push 341 returned %v with nobody receiving", ok)
			case <-time.After(20 * time.Millisecond):
			}
			close(stop)
			if <-parked {
				t.Fatal("push parked on a full queue must stop once Stop closes")
			}
			if s.Push(Tuple{3, 3}) {
				t.Fatal("push after Stop closed must report stop")
			}
			if s.Flush() {
				t.Fatal("flush of held rows after Stop closed must report stop")
			}
		}},
		{"flush delivers a partial block and is a no-op when empty", func(t *testing.T) {
			s := NewBlockSink(nil)
			if !s.Flush() || len(s.C) != 0 {
				t.Fatal("flush of a fresh sink handed something over")
			}
			pushN(t, s, 0, 3) // block of 1, then 2 of the next 4
			if !s.Flush() || len(s.C) != 2 {
				t.Fatalf("flush left %d blocks queued, want 2", len(s.C))
			}
			<-s.C
			if b := <-s.C; b.N != 2 || !slices.Equal(b.Vals, []Value{1, 1, 2, 2}) {
				t.Fatalf("partial block = %+v", b)
			}
			if !s.Flush() || len(s.C) != 0 {
				t.Fatal("second flush handed over an empty block")
			}
		}},
		{"width-0 rows keep their count", func(t *testing.T) {
			s := NewBlockSink(nil)
			for i := 0; i < 3; i++ {
				if !s.Push(Tuple{}) {
					t.Fatal("push stopped")
				}
			}
			s.Flush()
			close(s.C)
			n := 0
			for b := range s.C {
				n += b.N
			}
			if n != 3 {
				t.Fatalf("counted %d width-0 rows, want 3", n)
			}
		}},
		{"hand-off sizes are 1, 4, 16, 64, 256, 256", func(t *testing.T) {
			s := NewBlockSink(nil)
			var got []int
			done := make(chan struct{})
			go func() {
				defer close(done)
				for b := range s.C {
					got = append(got, b.N)
				}
			}()
			pushN(t, s, 0, 1+4+16+64+256+256+5)
			s.Flush()
			close(s.C)
			<-done
			if want := []int{1, 4, 16, 64, 256, 256, 5}; !slices.Equal(got, want) {
				t.Fatalf("hand-off sizes %v, want %v", got, want)
			}
		}},
		// The parallel scheduler moves the push right between goroutines with
		// a happens-before edge; under -race this checks the sink needs no
		// more than that.
		{"one pusher on successive goroutines", func(t *testing.T) {
			s := NewBlockSink(nil)
			sum, done := 0, make(chan struct{})
			go func() {
				defer close(done)
				for b := range s.C {
					for _, v := range b.Vals {
						sum += int(v)
					}
				}
			}()
			const n, per = 2000, 37
			for from := 0; from < n; from += per {
				turn := make(chan struct{})
				go func() {
					defer close(turn)
					for i := from; i < min(from+per, n); i++ {
						if !s.Push(Tuple{Value(i), Value(i)}) {
							t.Errorf("push %d stopped", i)
						}
					}
				}()
				<-turn
			}
			s.Flush()
			close(s.C)
			<-done
			if want := n * (n - 1); sum != want {
				t.Fatalf("consumer summed %d, want %d", sum, want)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

// TestMergeSortedIntoMatchesMergeSorted checks MergeSortedInto on a small
// hand-built input against the merged result it must produce — the sorted,
// deduplicated union — and that a limit sees exactly its prefix.
func TestMergeSortedIntoMatchesMergeSorted(t *testing.T) {
	a := sortedRel(t, "A", []int{0, 1}, [][]Value{{1, 1}, {3, 3}, {5, 5}})
	b := sortedRel(t, "B", []int{0, 1}, [][]Value{{2, 2}, {3, 3}, {6, 6}})
	c := sortedRel(t, "C", []int{0, 1}, nil)
	srcs := []*Relation{a, b, c}

	want := concatSortDedup(srcs)
	if want.Len() != 5 {
		t.Fatalf("reference has %d rows, want 5", want.Len())
	}
	sink := NewCollect("Q", 0, 1)
	if !MergeSortedInto(sink, srcs) {
		t.Fatal("collect sink stopped the merge")
	}
	if !Identical(want, sink.R) {
		t.Fatalf("MergeSortedInto differs from the sorted union: %v vs %v", sink.R.Rows(), want.Rows())
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

// A sink that must see each row must never take runs. Embedding the sink
// beside a type that has a PushRun makes the selector ambiguous — a compile
// error — the day *LimitSink or *BlockSink gains the method.
type hasPushRun struct{}

func (hasPushRun) PushRun() {}

var (
	_ RunSink = (*CollectSink)(nil)
	_ RunSink = (*CountSink)(nil)
	_         = struct {
		*LimitSink
		hasPushRun
	}{}.PushRun
	_ = struct {
		*BlockSink
		hasPushRun
	}{}.PushRun
)

// TestPushRunEqualsPushes: PushRun(prefix, last) is len(last) Pushes, for both
// implementers, at every arity from 1 (empty prefix) up, interleaved with
// plain pushes and across the growth of the collector's storage.
func TestPushRunEqualsPushes(t *testing.T) {
	for arity := 1; arity <= 4; arity++ {
		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		byRun, byRow := NewCollect("run", attrs...), NewCollect("row", attrs...)
		var nRun, nRow CountSink
		stale := byRun.R.IndexOn(attrs...)
		row := make(Tuple, arity)
		for p := 0; p < 40; p++ {
			for i := range row[:arity-1] {
				row[i] = Value(p * (i + 1))
			}
			last := make([]Value, (p*7)%23) // empty runs included
			for i := range last {
				last[i] = Value(p + 3*i)
			}
			if !byRun.PushRun(row[:arity-1], last) || !nRun.PushRun(row[:arity-1], last) {
				t.Fatal("PushRun stopped the producer")
			}
			for _, v := range last {
				row[arity-1] = v
				byRow.Push(row)
				nRow.Push(row)
			}
			if p%5 == 0 { // a plain push between runs lands between them
				row[arity-1] = -1
				byRun.Push(row)
				byRow.Push(row)
			}
		}
		if !Identical(byRun.R, byRow.R) {
			t.Fatalf("arity %d: rows pushed as runs differ from rows pushed one by one", arity)
		}
		if nRun.N != nRow.N || nRun.N == 0 {
			t.Fatalf("arity %d: counted %d by run, %d by row", arity, nRun.N, nRow.N)
		}
		if byRun.R.IndexOn(attrs...) == stale {
			t.Fatalf("arity %d: a run append kept serving an index built before it", arity)
		}
		last := byRun.R.Row(byRun.R.Len() - 1)
		if cap(last) != len(last) {
			t.Fatalf("arity %d: the last row's view has spare capacity %d", arity, cap(last)-len(last))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a run of the wrong arity must panic like AddTuple")
		}
	}()
	NewCollect("bad", 0, 1, 2).PushRun(Tuple{1}, []Value{2})
}
