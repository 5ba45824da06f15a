package rel

import (
	"fmt"
	"slices"
	"testing"
)

// refTable is a trivial map-based reference for the flat table: row ids per
// encoded key, insertion (= row) order.
type refTable map[string][]int32

func refKey(r *Relation, i int, cols []int) string {
	b := make([]byte, 0, len(cols)*8)
	for _, c := range cols {
		b = fmt.Appendf(b, "%d,", r.data[i*len(r.Attrs)+c])
	}
	return string(b)
}

func buildRef(r *Relation, cols []int) refTable {
	m := refTable{}
	for i := 0; i < r.Len(); i++ {
		k := refKey(r, i, cols)
		m[k] = append(m[k], int32(i))
	}
	return m
}

// FuzzFlatHash checks the open-addressing flat table against the map
// reference on arbitrary build/probe row data: membership (contains),
// full match lists in row order (matches), and the membership-only mode
// that stores no arena entries. Values are folded into a tiny domain so
// key collisions — within the build side and across probe rows — are
// common, and key widths 0..arity are all exercised.
func FuzzFlatHash(f *testing.F) {
	f.Add(2, 1, []byte{1, 2, 3, 4, 1, 2}, []byte{1, 2, 9, 9})
	f.Add(1, 1, []byte{5, 5, 5}, []byte{5, 6})
	f.Add(3, 2, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 0})
	f.Add(2, 0, []byte{0, 0, 1, 1}, []byte{2, 2})
	f.Add(3, 3, []byte{}, []byte{1, 1, 1})
	f.Fuzz(func(t *testing.T, arity, nkey int, buildData, probeData []byte) {
		arity = 1 + int(uint(arity)%3)
		nkey = int(uint(nkey) % uint(arity+1))

		attrs := make([]int, arity)
		cols := make([]int, nkey)
		for i := range attrs {
			attrs[i] = i
		}
		for i := range cols {
			cols[i] = i
		}
		mk := func(name string, data []byte) *Relation {
			r := New(name, attrs...)
			row := make(Tuple, arity)
			for n := 0; n+arity <= len(data); n += arity {
				for c := 0; c < arity; c++ {
					row[c] = Value(data[n+c] % 4)
				}
				r.AddTuple(row)
			}
			return r
		}
		b := mk("B", buildData)
		p := mk("P", probeData)
		ref := buildRef(b, cols)

		ht := buildHash(b, cols, true)
		for i := 0; i < p.Len(); i++ {
			k := refKey(p, i, cols)
			want := ref[k]
			got := ht.matches(p, i, cols)
			if !slices.Equal(got, want) {
				t.Fatalf("matches(row %d, key %q) = %v, want %v", i, k, got, want)
			}
			if ht.contains(p, i, cols) != (len(want) > 0) {
				t.Fatalf("contains(row %d) disagrees with reference", i)
			}
		}
		// Self-probe: every build row must find its own group.
		for i := 0; i < b.Len(); i++ {
			if !slices.Contains(ht.matches(b, i, cols), int32(i)) {
				t.Fatalf("build row %d missing from its own match list", i)
			}
		}
		ht.release()

		// Membership-only mode: same contains answers, empty arena.
		hm := buildHash(b, cols, false)
		if len(hm.arena) != 0 {
			t.Fatalf("membership-only table stored %d arena entries", len(hm.arena))
		}
		for i := 0; i < p.Len(); i++ {
			if hm.contains(p, i, cols) != (len(ref[refKey(p, i, cols)]) > 0) {
				t.Fatalf("membership-only contains(row %d) disagrees", i)
			}
		}
		hm.release()
	})
}

// TestKeyLookup: Find returns the first row carrying the key at any key
// width, misses cleanly, is cached on the relation like an index, and is
// dropped by a mutation.
func TestKeyLookup(t *testing.T) {
	r := New("G", 3, 5, 7) // variables 3, 5, 7
	for i := 0; i < 300; i++ {
		r.Add(Value(i%20), Value(i/20), Value(i*i))
	}
	r.Add(4, 2, -1) // a second row for key (4, 2): the first one wins
	vals := make([]Value, 8)
	for _, keyVars := range [][]int{{5}, {3, 5}, {5, 3}, {3, 5, 7}} {
		l := r.LookupOn(keyVars...)
		if r.LookupOn(keyVars...) != l {
			t.Fatalf("LookupOn(%v) was rebuilt", keyVars)
		}
		for i := 0; i < r.Len(); i++ {
			row := r.Row(i)
			vals[3], vals[5], vals[7] = row[0], row[1], row[2]
			got, ok := l.Find(vals, keyVars)
			if !ok {
				t.Fatalf("key %v of row %d not found", keyVars, i)
			}
			for _, v := range keyVars {
				if got[r.Col(v)] != vals[v] {
					t.Fatalf("key %v of row %d found row %v", keyVars, i, got)
				}
			}
		}
		vals[5] = 1 << 40
		if _, ok := l.Find(vals, keyVars); ok {
			t.Fatalf("key %v: absent key found", keyVars)
		}
		if allocs := testing.AllocsPerRun(100, func() { l.Find(vals, keyVars) }); allocs != 0 {
			t.Fatalf("key %v: Find allocates %v times", keyVars, allocs)
		}
	}
	vals[3], vals[5] = 4, 2
	if got, _ := r.LookupOn(3, 5).Find(vals, []int{3, 5}); got[2] != 44*44 {
		t.Fatalf("duplicate key: found row %v, want the first", got)
	}
	old := r.LookupOn(3, 5)
	r.Add(99, 99, 99)
	if r.LookupOn(3, 5) == old {
		t.Fatal("a mutation must drop the cached lookups")
	}
}
