package rel

import (
	"slices"
	"testing"
)

// FuzzMergeSorted checks the k-way merge, MergeSortedInto into a
// CollectSink, against the trivial reference (concatenate everything,
// SortDedup) for arbitrary row data, arities (including 0), part counts
// from 1 to 20, and part assignments. Values are folded into a tiny domain
// so duplicate rows — within one part and across parts — are common.
func FuzzMergeSorted(f *testing.F) {
	f.Add(2, 3, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(1, 1, []byte{9, 9, 9, 9})
	f.Add(0, 2, []byte{1, 2, 3})
	f.Add(3, 4, []byte{})
	f.Add(2, 2, []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0})
	// One part, rows in order with duplicates and then a descent: SortDedup's
	// in-order pass squeezes duplicates out before it has to give up and sort.
	f.Add(2, 0, []byte{0, 1, 0, 1, 0, 2, 0, 2, 1, 0, 1, 0, 0, 0})
	// More parts than rows: most parts are empty.
	f.Add(1, 19, []byte{5, 3, 5, 1, 0, 7, 2, 2, 6, 4, 1, 3})
	f.Fuzz(func(t *testing.T, arity, nparts int, data []byte) {
		// Fold via uint to dodge the abs(math.MinInt) overflow.
		arity = int(uint(arity) % 4)
		nparts = 1 + int(uint(nparts)%20)

		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		parts := make([]*Relation, nparts)
		for p := range parts {
			parts[p] = New("part", attrs...)
		}
		ref := New("ref", attrs...)

		// Decode rows: chunks of `arity` bytes, values folded mod 8 so
		// collisions are frequent; row r goes to part r mod nparts. With
		// arity 0 every byte is one empty row.
		row := make(Tuple, arity)
		nRows := len(data)
		if arity > 0 {
			nRows = len(data) / arity
		}
		for r := 0; r < nRows; r++ {
			for c := 0; c < arity; c++ {
				row[c] = Value(data[r*arity+c] % 8)
			}
			parts[r%nparts].AddTuple(row)
			ref.AddTuple(row)
		}
		for _, p := range parts {
			p.SortDedup()
		}
		ref.SortDedup()

		c := NewCollect("Q", attrs...)
		if !MergeSortedInto(c, parts) {
			t.Fatal("collect sink stopped the merge")
		}
		got := c.R
		if got.Len() != ref.Len() {
			t.Fatalf("merge has %d rows, reference %d", got.Len(), ref.Len())
		}
		for i := 0; i < got.Len(); i++ {
			ra, rb := got.Row(i), ref.Row(i)
			for c := range ra {
				if ra[c] != rb[c] {
					t.Fatalf("row %d differs: %v vs %v", i, ra, rb)
				}
			}
		}
	})
}

// FuzzCollectExpect checks CollectSink's reservation: whatever Expect says —
// 0, below, exactly at or above the rows that arrive — and however the rows
// arrive (Push, PushRun, Stream, in any mix), the collected relation is the
// reference row for row. A Stream into an empty collector adopts the
// streamed relation exactly when it holds at least the expected rows; any
// other first write reserves the expected rows, after which the storage
// grows only if more rows arrive than were expected.
func FuzzCollectExpect(f *testing.F) {
	f.Add(2, 0, []byte{0, 3, 6}, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(2, 4, []byte{2}, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // one Stream of exactly the expected rows
	f.Add(2, 5, []byte{2}, []byte{1, 2, 3, 4, 5, 6, 7, 8}) // one Stream of fewer
	f.Add(3, 2, []byte{5, 1, 0}, []byte{0, 1, 2, 0, 1, 3, 0, 2, 2, 1, 0, 0})
	f.Add(1, 9, []byte{1, 2, 0}, []byte{7, 1, 3, 3, 5})
	f.Add(0, 1, []byte{2, 0}, []byte{1, 2})
	f.Fuzz(func(t *testing.T, arity, expect int, plan, data []byte) {
		arity = int(uint(arity) % 4)
		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		ref := New("ref", attrs...)
		row := make(Tuple, arity)
		nRows := len(data)
		if arity > 0 {
			nRows = len(data) / arity
		}
		for r := 0; r < nRows; r++ {
			for c := 0; c < arity; c++ {
				row[c] = Value(data[r*arity+c] % 8)
			}
			ref.AddTuple(row)
		}
		ref.SortDedup()
		n := ref.Len()
		expect = int(uint(expect) % uint(2*n+2)) // 0, below, at and above n

		c := NewCollect("Q", attrs...)
		c.Expect = expect
		adopted := false
		for i, step := 0, 0; i < n; step++ {
			op := byte(0)
			if len(plan) > 0 {
				op = plan[step%len(plan)]
			}
			end := min(n, i+1+int(op/3)%8)
			empty, wantAdopt := c.R.Len() == 0, false
			switch op % 3 {
			case 0:
				for ; i < end; i++ {
					c.Push(ref.Row(i))
				}
			case 1: // the rows from i on that share their prefix, as one run
				if arity == 0 {
					c.Push(ref.Row(i))
					i++
					continue
				}
				prefix := ref.Row(i)[:arity-1]
				var last []Value
				for ; i < end && slices.Equal(ref.Row(i)[:arity-1], prefix); i++ {
					last = append(last, ref.Row(i)[arity-1])
				}
				c.PushRun(slices.Clone(prefix), last)
			case 2:
				part := New("part", attrs...)
				for ; i < end; i++ {
					part.AddTuple(ref.Row(i))
				}
				had, want := c.R.Len(), c.Expect
				wantAdopt = empty && part.Len() >= want
				Stream(part, c)
				if got := c.R == part; got != wantAdopt {
					t.Fatalf("Stream of %d rows into a collector of %d expecting %d: adopted %v", part.Len(), had, want, got)
				}
			}
			if empty {
				adopted = wantAdopt
			}
		}
		if c.R.Len() != n || !slices.Equal(c.R.data, ref.data) {
			t.Fatalf("collected %d rows, reference %d (Expect %d)", c.R.Len(), n, expect)
		}
		if arity > 0 && n > 0 && !adopted && expect >= n && c.R.Cap() != expect {
			t.Fatalf("%d rows, Expect %d: storage for %d rows, want exactly the reservation", n, expect, c.R.Cap())
		}
	})
}
