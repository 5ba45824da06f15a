package rel

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refPerm is sortedPerm's definition: a stable sort of the row indices by
// row, so equal rows stay in ascending index order.
func refPerm(data []Value, n, k int) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		return slices.Compare(data[int(a)*k:int(a)*k+k], data[int(b)*k:int(b)*k+k])
	})
	return perm
}

// checkSortedPerm compares sortedPerm with the reference and, where the
// caller knows it, which of the two paths the rows must take.
func checkSortedPerm(t *testing.T, what string, data []Value, n, k int, wantPacked ...bool) {
	t.Helper()
	if got, want := sortedPerm(data, n, k), refPerm(data, n, k); !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d, k=%d): sortedPerm = %v, reference %v", what, n, k, got, want)
	}
	if len(wantPacked) > 0 && n > 1 && k > 0 {
		if packed := sortPacked(data, n, k, make([]int32, n)); packed != wantPacked[0] {
			t.Fatalf("%s (n=%d, k=%d): packed = %v, want %v", what, n, k, packed, wantPacked[0])
		}
	}
}

// TestSortedPermPackedMatchesComparator: the packed-key path and the
// comparator path return the same permutation — the stable one — on the
// inputs that separate them: negative values, a column spanning the whole
// int64 range (width 64, so the comparator runs), widths summing to exactly
// 64 bits and to 65, the smallest row counts, arity 0 and an arity over the
// stack buffers, and all-equal rows, where only the index orders.
func TestSortedPermPackedMatchesComparator(t *testing.T) {
	checkSortedPerm(t, "negative", []Value{-5, 3, -7, 3, 0, -1, -7, 2}, 4, 2, true)
	checkSortedPerm(t, "full range", []Value{math.MaxInt64, 1, math.MinInt64, 2, 0, 3, math.MinInt64, 0}, 4, 2, false)
	checkSortedPerm(t, "extremes, narrow", []Value{math.MaxInt64, math.MaxInt64 - 3, math.MaxInt64 - 1}, 3, 1, true)
	checkSortedPerm(t, "extremes, low", []Value{math.MinInt64 + 2, math.MinInt64, math.MinInt64 + 1}, 3, 1, true)

	// 4 rows need 2 index bits; column widths 31 + 31 = 62 fill the word
	// exactly, 31 + 32 overflow it by one.
	fit := []Value{1<<31 - 1, 0, 0, 1<<31 - 1, 5, 5, 0, 0}
	checkSortedPerm(t, "64 bits", fit, 4, 2, true)
	over := slices.Clone(fit)
	over[3] = 1<<32 - 1
	checkSortedPerm(t, "65 bits", over, 4, 2, false)

	for n := 0; n <= 2; n++ {
		checkSortedPerm(t, "tiny, descending", []Value{9, 1, 3, 0}[:2*n], n, 2)
		checkSortedPerm(t, "arity 0", nil, n, 0)
	}
	checkSortedPerm(t, "arity 0, many", nil, 40, 0)

	wide := make([]Value, 17*30)
	rng := rand.New(rand.NewSource(3))
	for i := range wide {
		wide[i] = Value(rng.Intn(3))
	}
	checkSortedPerm(t, "arity 17", wide, 30, 17, true)
	for i := range wide {
		wide[i] = Value(rng.Intn(1 << 10))
	}
	checkSortedPerm(t, "arity 17, 170 bits", wide, 30, 17, false)

	equal := make([]Value, 3*100)
	for i := range equal {
		equal[i] = 7
	}
	checkSortedPerm(t, "all equal", equal, 100, 3, true)
	equal[0], equal[1] = math.MinInt64, math.MaxInt64 // rows 1.. still all equal, now on the comparator path
	checkSortedPerm(t, "all equal but one, full range", equal, 100, 3, false)

	for trial := 0; trial < 500; trial++ {
		n, k := rng.Intn(70), 1+rng.Intn(4)
		data := make([]Value, n*k)
		span := []int64{2, 5, 1 << 20, 1 << 40, math.MaxInt64}[rng.Intn(5)]
		for i := range data {
			data[i] = rng.Int63n(span) - span/2
		}
		checkSortedPerm(t, "random", data, n, k)
	}
}

// FuzzSortedPerm checks sortedPerm against the stable reference on arbitrary
// rows. Each value is eight input bytes, so the fuzzer reaches both paths:
// small values pack, values that differ in their high bytes do not.
func FuzzSortedPerm(f *testing.F) {
	f.Add(2, []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add(1, []byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add(3, []byte{})
	f.Add(0, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, k int, raw []byte) {
		k = int(uint(k) % 5)
		vals := make([]Value, len(raw)/8)
		for i := range vals {
			for b := 0; b < 8; b++ {
				vals[i] |= Value(raw[i*8+b]) << (8 * b)
			}
		}
		n := len(vals)
		if k > 0 {
			n = len(vals) / k
		}
		checkSortedPerm(t, "fuzz", vals[:n*k], n, k)
	})
}

// TestKeyLookupRunsMatchIndexRange: the hashed lookup on the first nkey
// columns of an index returns, for every key present and for absent ones,
// the interval a linear scan of the sorted rows finds (scanRange) — at every
// nkey from 0 to the arity — is cached on the index, and probes without
// allocating.
func TestKeyLookupRunsMatchIndexRange(t *testing.T) {
	r := New("R", 4, 2, 6) // variables 4, 2, 6
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		r.Add(Value(rng.Intn(6)-3), Value(rng.Intn(7)), Value(rng.Intn(4)))
	}
	r.SortDedup()
	vals := make([]Value, 8)
	for _, prio := range [][]int{{4, 2, 6}, {6, 4, 2}, {2}} {
		ix := r.IndexOn(prio...)
		for nkey := 0; nkey <= ix.arity; nkey++ {
			l := ix.Lookup(nkey)
			if ix.Lookup(nkey) != l {
				t.Fatalf("Lookup(%d) was rebuilt", nkey)
			}
			at := ix.Attrs()[:nkey]
			probe := func(key []Value) {
				for i, v := range at {
					vals[v] = key[i]
				}
				lo, hi := l.Run(vals, at)
				wlo, whi := scanRange(ix, key...)
				if hi-lo != whi-wlo || (hi > lo && lo != wlo) {
					t.Fatalf("index %v, key %v: Run = [%d, %d), scan = [%d, %d)", ix.Attrs(), key, lo, hi, wlo, whi)
				}
				row, ok := l.Find(vals, at)
				if ok != (whi > wlo) || (ok && !slices.Equal(row, ix.Row(wlo))) {
					t.Fatalf("index %v, key %v: Find = %v, %v; want row %d", ix.Attrs(), key, row, ok, wlo)
				}
			}
			for pos := 0; pos < ix.Len(); pos++ {
				key := slices.Clone(ix.Row(pos)[:nkey])
				probe(key)
				if nkey > 0 {
					key[rng.Intn(nkey)] += 100
					probe(key) // absent
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { l.Run(vals, at) }); allocs != 0 {
				t.Fatalf("nkey %d: Run allocates %v times per probe", nkey, allocs)
			}
		}
	}
	before := IndexBuilds()
	r.IndexOn(4, 2, 6).Lookup(2)
	if IndexBuilds() != before {
		t.Fatal("a cached lookup counted as a build")
	}
	empty := New("E", 0, 1).IndexOn(0).Lookup(1)
	if lo, hi := empty.Run(vals, []int{0}); lo != hi {
		t.Fatalf("empty index: Run = [%d, %d)", lo, hi)
	}
}

// TestSemijoinAllMatchesChainedSemijoins: one pass against every b keeps
// exactly the rows the chain of Semijoins keeps, in a's order, including
// against an empty b and one that shares no variable with a.
func TestSemijoinAllMatchesChainedSemijoins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mk := func(n, dom int, attrs ...int) *Relation {
		r := New("R", attrs...)
		row := make(Tuple, len(attrs))
		for i := 0; i < n; i++ {
			for c := range row {
				row[c] = Value(rng.Intn(dom))
			}
			r.AddTuple(row)
		}
		return r
	}
	a := mk(500, 6, 0, 1, 2, 3)
	for _, bs := range [][]*Relation{
		{mk(20, 6, 0, 1), mk(20, 6, 2, 1), mk(30, 6, 3)},
		{mk(25, 6, 3, 0), mk(4, 6, 7)},
		{mk(25, 6, 3, 0), mk(0, 6, 1)},
		{mk(25, 6, 3, 0), mk(0, 6, 7)},
		{},
	} {
		want := a
		for _, b := range bs {
			want = Semijoin(want, b)
		}
		got := SemijoinAll(a, bs)
		if !Identical(got, want) {
			t.Fatalf("%d relations: SemijoinAll kept %d rows, chained Semijoins %d", len(bs), got.Len(), want.Len())
		}
		if got == a {
			t.Fatal("SemijoinAll must return a fresh relation")
		}
	}
}
