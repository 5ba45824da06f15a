package rel

import "testing"

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
		c.R.Grow(1) // defeat adoption
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
