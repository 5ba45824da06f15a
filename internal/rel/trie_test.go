package rel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// Property: every trie level enumerates exactly the distinct prefixes the
// index's DistinctNext reports, with matching child fanout, on random data.
func TestTrieAgainstDistinctNext(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		r := New("R", 0, 1, 2)
		for i := 0; i < 5+rng.Intn(200); i++ {
			r.Add(Value(rng.Intn(5)), Value(rng.Intn(5)), Value(rng.Intn(5)))
		}
		ix := r.IndexOn(0, 1, 2)
		tr := ix.Trie()
		if tr != ix.Trie() {
			t.Fatal("Trie must be cached")
		}

		// Level 0 vs DistinctNext(nil).
		var want []Value
		ix.DistinctNext(nil, func(v Value, _ int) bool {
			want = append(want, v)
			return true
		})
		vals0, start1, vals1 := tr.LevelVals(0), tr.LevelStart(1), tr.LevelVals(1)
		if len(vals0) != len(want) {
			t.Fatalf("trial %d: root fanout %d, want %d", trial, len(vals0), len(want))
		}
		for p := range vals0 {
			if vals0[p] != want[p] {
				t.Fatalf("trial %d: root val[%d] = %d, want %d", trial, p, vals0[p], want[p])
			}
			// Children of node p vs DistinctNext under the prefix.
			var inner []Value
			ix.DistinctNext([]Value{vals0[p]}, func(v Value, _ int) bool {
				inner = append(inner, v)
				return true
			})
			clo, chi := start1[p], start1[p+1]
			if int(chi-clo) != len(inner) {
				t.Fatalf("trial %d: fanout %d, want %d", trial, chi-clo, len(inner))
			}
			if run := vals1[clo:chi]; !slices.Equal(run, inner) {
				t.Fatalf("trial %d: child run %v, want %v", trial, run, inner)
			}
			for c := clo; c < chi; c++ {
				// Third level under (v0, v1).
				var third []Value
				ix.DistinctNext([]Value{vals0[p], vals1[c]}, func(v Value, _ int) bool {
					third = append(third, v)
					return true
				})
				glo, ghi := tr.LevelStart(2)[c], tr.LevelStart(2)[c+1]
				if int(ghi-glo) != len(third) {
					t.Fatalf("trial %d: grandchild fanout %d, want %d", trial, ghi-glo, len(third))
				}
			}
		}
	}
}

// SeekGE must agree with a linear scan from any starting cursor.
func TestTrieSeekGE(t *testing.T) {
	r := New("R", 0)
	for _, v := range []Value{2, 3, 5, 5, 8, 13, 21, 21, 34} {
		r.Add(v)
	}
	tr := r.IndexOn(0).Trie()
	vals := tr.LevelVals(0) // distinct: 2 3 5 8 13 21 34
	if len(vals) != 7 {
		t.Fatalf("root size %d, want 7", len(vals))
	}
	for start := 0; start <= len(vals); start++ {
		for v := Value(0); v < 40; v++ {
			want := start
			for want < len(vals) && vals[want] < v {
				want++
			}
			if got := SeekGE(vals, start, v); got != want {
				t.Fatalf("SeekGE(from=%d, v=%d) = %d, want %d", start, v, got, want)
			}
		}
	}
}

func TestTrieZeroArityAndEmpty(t *testing.T) {
	r := New("unit")
	r.Add()
	tr := r.IndexOn().Trie()
	if tr.Levels() != 0 {
		t.Fatalf("zero-arity trie has %d levels", tr.Levels())
	}
	e := New("E", 0, 1)
	te := e.IndexOn(0).Trie()
	if len(te.LevelVals(0)) != 0 || te.LevelStart(1) != nil {
		t.Fatal("empty relation's levels must be empty")
	}
}

// The trie must respect the index's priority order, not schema order.
func TestTriePriorityOrder(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(7, 1)
	r.Add(8, 1)
	r.Add(9, 2)
	tr := r.IndexOn(1).Trie() // priority (1, 0)
	if tr.Attr(0) != 1 || tr.Attr(1) != 0 {
		t.Fatalf("trie attrs (%d,%d), want (1,0)", tr.Attr(0), tr.Attr(1))
	}
	if vals := tr.LevelVals(0); len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("level-0 values wrong")
	}
	if s := tr.LevelStart(1); s[1]-s[0] != 2 || s[2]-s[1] != 1 {
		t.Fatalf("fanout wrong: %v", s)
	}
}

// DistinctNext iterates the distinct values of the column at priority
// position len(prefix), among rows matching prefix, calling f with each
// value and its degree (number of matching rows). Iteration stops if f
// returns false.
func (ix *Index) DistinctNext(prefix []Value, f func(v Value, degree int) bool) {
	if len(prefix) >= ix.arity {
		panic(fmt.Sprintf("rel: DistinctNext needs an unbound column on %s", ix.rel.Name))
	}
	lo, hi := scanRange(ix, prefix...)
	col := len(prefix)
	k := ix.arity
	for pos := lo; pos < hi; {
		v := ix.data[pos*k+col]
		// Binary search for the end of this value's run in (pos, hi).
		l, h := pos+1, hi
		for l < h {
			mid := int(uint(l+h) >> 1)
			if ix.data[mid*k+col] <= v {
				l = mid + 1
			} else {
				h = mid
			}
		}
		if !f(v, l-pos) {
			return
		}
		pos = l
	}
}
