package rel

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/varset"
)

func TestAddLenRow(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(1, 2)
	r.Add(3, 4)
	if r.Len() != 2 || r.Arity() != 2 {
		t.Fatalf("Len/Arity wrong")
	}
	if r.Row(1)[0] != 3 {
		t.Fatalf("Row wrong")
	}
	if r.Value(0, 1) != 2 {
		t.Fatalf("Value wrong")
	}
}

func TestAddArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R", 0, 1).Add(1)
}

func TestDuplicateAttrPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("R", 0, 0)
}

func TestSortDedup(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(2, 1)
	r.Add(1, 2)
	r.Add(2, 1)
	r.SortDedup()
	if r.Len() != 2 {
		t.Fatalf("dedup failed, len=%d", r.Len())
	}
	if r.Row(0)[0] != 1 || r.Row(1)[0] != 2 {
		t.Fatal("sort order wrong")
	}
}

// TestSortDedupMatchesSortingReference: SortDedup's in-order pass (compact in
// place, no sort) and its fallback agree with the plain definition — sort
// the rows, drop adjacent duplicates — on every input shape the pass treats
// differently: random, already sorted, reversed, sorted with duplicates,
// sorted but for one late descent after duplicates were already squeezed
// out, single-row, empty and arity-0 relations. An index built afterwards
// must see the new rows (the caches were dropped).
func TestSortDedupMatchesSortingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 3000; trial++ {
		arity := rng.Intn(4)
		n := rng.Intn(48)
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = make([]Value, arity)
			for c := range rows[i] {
				rows[i][c] = Value(rng.Intn(5))
			}
		}
		cmp := func(a, b []Value) int { return slices.Compare(a, b) }
		switch trial % 5 {
		case 1:
			slices.SortFunc(rows, cmp)
		case 2:
			slices.SortFunc(rows, cmp)
			slices.Reverse(rows)
		case 3: // sorted and duplicate-free
			slices.SortFunc(rows, cmp)
			rows = slices.CompactFunc(rows, func(a, b []Value) bool { return cmp(a, b) == 0 })
		case 4: // sorted with duplicates, then one row out of order
			slices.SortFunc(rows, cmp)
			if n > 2 {
				i, j := n-1-rng.Intn(2), rng.Intn(n-2)
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		r := New("R", attrs...)
		for _, row := range rows {
			r.AddTuple(row)
		}
		r.IndexOn(attrs...) // a cache SortDedup must drop
		r.SortDedup()

		want := slices.Clone(rows)
		slices.SortFunc(want, cmp)
		want = slices.CompactFunc(want, func(a, b []Value) bool { return cmp(a, b) == 0 })
		if r.Len() != len(want) || len(r.data) != len(want)*arity {
			t.Fatalf("trial %d (arity %d): %d rows over %d values, reference %d rows", trial, arity, r.Len(), len(r.data), len(want))
		}
		ix := r.IndexOn(attrs...)
		for i, w := range want {
			if !slices.Equal(r.Row(i), Tuple(w)) || !slices.Equal(ix.Row(i), Tuple(w)) {
				t.Fatalf("trial %d: row %d is %v (index %v), reference %v", trial, i, r.Row(i), ix.Row(i), w)
			}
		}
	}
}

// TestSortDedupInOrderAllocatesNothing pins the point of the in-order pass.
func TestSortDedupInOrderAllocatesNothing(t *testing.T) {
	r := New("R", 0, 1)
	for i := 0; i < 1000; i++ {
		r.Add(Value(i/2), Value(i%2))
	}
	if allocs := testing.AllocsPerRun(10, r.SortDedup); allocs != 0 {
		t.Fatalf("SortDedup of sorted rows allocates %v times, want 0", allocs)
	}
}

func TestProject(t *testing.T) {
	r := New("R", 0, 1, 2)
	r.Add(1, 10, 100)
	r.Add(1, 20, 100)
	r.Add(2, 10, 200)
	p := r.Project(varset.Of(0, 2))
	if p.Len() != 2 {
		t.Fatalf("projection len = %d, want 2", p.Len())
	}
	if p.VarSet() != varset.Of(0, 2) {
		t.Fatalf("projection vars = %v", p.VarSet())
	}
	// Projecting onto vars not in the relation keeps only the intersection.
	q := r.Project(varset.Of(1, 5))
	if q.VarSet() != varset.Of(1) {
		t.Fatalf("projection vars = %v", q.VarSet())
	}
}

func TestJoinBasic(t *testing.T) {
	r := New("R", 0, 1) // R(x,y)
	r.Add(1, 2)
	r.Add(1, 3)
	s := New("S", 1, 2) // S(y,z)
	s.Add(2, 7)
	s.Add(2, 8)
	s.Add(9, 9)
	j := Join(r, s)
	if j.VarSet() != varset.Of(0, 1, 2) {
		t.Fatalf("join vars = %v", j.VarSet())
	}
	if j.Len() != 2 {
		t.Fatalf("join len = %d, want 2", j.Len())
	}
}

func TestJoinCross(t *testing.T) {
	r := New("R", 0)
	r.Add(1)
	r.Add(2)
	s := New("S", 1)
	s.Add(10)
	s.Add(20)
	j := Join(r, s)
	if j.Len() != 4 {
		t.Fatalf("cross product len = %d, want 4", j.Len())
	}
}

func TestSemijoin(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(1, 1)
	r.Add(2, 2)
	s := New("S", 1)
	s.Add(1)
	sj := Semijoin(r, s)
	if sj.Len() != 1 || sj.Row(0)[0] != 1 {
		t.Fatalf("semijoin wrong: %v", sj.Rows())
	}
}

func TestIntersectUnion(t *testing.T) {
	a := New("A", 0, 1)
	a.Add(1, 1)
	a.Add(2, 2)
	b := New("B", 0, 1)
	b.Add(2, 2)
	b.Add(3, 3)
	if got := Intersect(a, b); got.Len() != 1 {
		t.Fatalf("intersect len = %d", got.Len())
	}
	if got := Union(a, b); got.Len() != 3 {
		t.Fatalf("union len = %d", got.Len())
	}
}

func TestUnionColumnOrderMismatch(t *testing.T) {
	a := New("A", 0, 1)
	a.Add(1, 2)
	b := New("B", 1, 0) // same vars, different order
	b.Add(2, 1)         // same logical tuple
	u := Union(a, b)
	if u.Len() != 1 {
		t.Fatalf("union should reconcile column order, len = %d", u.Len())
	}
}

func TestEqual(t *testing.T) {
	a := New("A", 0, 1)
	a.Add(1, 2)
	a.Add(3, 4)
	b := New("B", 1, 0)
	b.Add(4, 3)
	b.Add(2, 1)
	if !Equal(a, b) {
		t.Fatal("relations with same rows under different column order should be Equal")
	}
	b.Add(9, 9)
	if Equal(a, b) {
		t.Fatal("different relations reported Equal")
	}
}

// TestIndexRangeCount: a key's run of rows in the hashed lookup has the
// key's row count as its length.
func TestIndexRangeCount(t *testing.T) {
	r := New("R", 0, 1)
	for i := Value(0); i < 10; i++ {
		r.Add(i%3, i)
	}
	ix := r.IndexOn(0)
	if got := degree(ix, 0); got != 4 {
		t.Fatalf("degree(0) = %d, want 4", got)
	}
	if got := degree(ix, 1); got != 3 {
		t.Fatalf("degree(1) = %d, want 3", got)
	}
	if got := degree(ix, 99); got != 0 {
		t.Fatalf("degree(99) = %d, want 0", got)
	}
	if degree(ix, 0, 0) != 1 || degree(ix, 0, 1) != 0 {
		t.Fatal("degree on a full prefix wrong")
	}
}

func TestIndexDistinctNext(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(1, 10)
	r.Add(1, 20)
	r.Add(2, 30)
	ix := r.IndexOn(0, 1)
	var vals []Value
	var degs []int
	ix.DistinctNext(nil, func(v Value, d int) bool {
		vals = append(vals, v)
		degs = append(degs, d)
		return true
	})
	if len(vals) != 2 || vals[0] != 1 || degs[0] != 2 || vals[1] != 2 || degs[1] != 1 {
		t.Fatalf("DistinctNext got %v %v", vals, degs)
	}
	// Second level under prefix 1.
	var inner []Value
	ix.DistinctNext([]Value{1}, func(v Value, d int) bool {
		inner = append(inner, v)
		return true
	})
	if len(inner) != 2 || inner[0] != 10 || inner[1] != 20 {
		t.Fatalf("inner DistinctNext got %v", inner)
	}
}

func TestIndexMaxDegree(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(1, 1)
	r.Add(1, 2)
	r.Add(1, 3)
	r.Add(2, 1)
	ix := r.IndexOn(0)
	for _, tc := range []struct{ nkey, nprefix, want int }{
		{1, 2, 3}, // rows per key
		{0, 2, 4}, // rows
		{0, 1, 2}, // distinct keys
		{1, 1, 1}, // a key is one prefix of itself
		{0, 0, 1}, // the empty prefix
	} {
		if got := ix.MaxDegree(tc.nkey, tc.nprefix); got != tc.want {
			t.Fatalf("MaxDegree(%d, %d) = %d, want %d", tc.nkey, tc.nprefix, got, tc.want)
		}
	}
	if got := New("E", 0).IndexOn(0).MaxDegree(0, 1); got != 0 {
		t.Fatalf("MaxDegree on an empty relation = %d, want 0", got)
	}
}

func TestIndexSkipsForeignVars(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(5, 6)
	ix := r.IndexOn(7, 1) // 7 is not an attribute; priority becomes (1, 0)
	if ix.Attr(0) != 1 {
		t.Fatalf("Attr(0) = %d, want 1", ix.Attr(0))
	}
	if ix.Attr(1) != 0 || len(ix.Attrs()) != 2 {
		t.Fatalf("Attrs = %v, want [1 0]", ix.Attrs())
	}
}

// Property: Join agrees with a nested-loop reference implementation on
// random instances.
func TestJoinAgainstNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		r := New("R", 0, 1)
		s := New("S", 1, 2)
		for i := 0; i < 20; i++ {
			r.Add(Value(rng.Intn(4)), Value(rng.Intn(4)))
			s.Add(Value(rng.Intn(4)), Value(rng.Intn(4)))
		}
		r.SortDedup()
		s.SortDedup()
		want := New("W", 0, 1, 2)
		for _, tr := range r.Rows() {
			for _, ts := range s.Rows() {
				if tr[1] == ts[0] {
					want.Add(tr[0], tr[1], ts[1])
				}
			}
		}
		got := Join(r, s)
		got.SortDedup()
		want.SortDedup()
		if !Equal(got, want) {
			t.Fatalf("trial %d: join mismatch", trial)
		}
	}
}

// Property: a key's row count matches a linear scan on random data.
func TestIndexCountAgainstScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := New("R", 0, 1, 2)
	for i := 0; i < 200; i++ {
		r.Add(Value(rng.Intn(5)), Value(rng.Intn(5)), Value(rng.Intn(5)))
	}
	ix := r.IndexOn(1, 2)
	for a := Value(0); a < 5; a++ {
		for b := Value(0); b < 5; b++ {
			want := 0
			for _, t2 := range r.Rows() {
				if t2[1] == a && t2[2] == b {
					want++
				}
			}
			if got := degree(ix, a, b); got != want {
				t.Fatalf("degree(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// --- randomized property tests against nested-loop references ---

func randRel(rng *rand.Rand, name string, attrs []int, rows, dom int) *Relation {
	r := New(name, attrs...)
	t := make(Tuple, len(attrs))
	for i := 0; i < rows; i++ {
		for j := range t {
			t[j] = Value(rng.Intn(dom))
		}
		r.AddTuple(t)
	}
	return r
}

// refJoin is a nested-loop natural join with a's attrs followed by b's
// non-shared attrs — the documented Join output schema.
func refJoin(a, b *Relation) *Relation {
	shared := a.VarSet().Intersect(b.VarSet())
	outAttrs := append([]int(nil), a.Attrs...)
	var extra []int
	for _, v := range b.Attrs {
		if !shared.Contains(v) {
			outAttrs = append(outAttrs, v)
			extra = append(extra, v)
		}
	}
	out := New("ref", outAttrs...)
	nt := make(Tuple, len(outAttrs))
	for i := 0; i < a.Len(); i++ {
		ta := a.Row(i)
		for j := 0; j < b.Len(); j++ {
			match := true
			for _, v := range shared.Members() {
				if a.Value(i, v) != b.Value(j, v) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			copy(nt, ta)
			for k, v := range extra {
				nt[len(ta)+k] = b.Value(j, v)
			}
			out.AddTuple(nt)
		}
	}
	return out
}

func refSemi(a, b *Relation) *Relation {
	shared := a.VarSet().Intersect(b.VarSet())
	out := New(a.Name, a.Attrs...)
	for i := 0; i < a.Len(); i++ {
		found := false
		for j := 0; j < b.Len() && !found; j++ {
			match := true
			for _, v := range shared.Members() {
				if a.Value(i, v) != b.Value(j, v) {
					match = false
					break
				}
			}
			found = match
		}
		if found {
			out.AddTuple(a.Row(i))
		}
	}
	return out
}

// Property: Join/Semijoin/Union/Project agree with nested-loop
// references on random instances, across arities, shared-variable counts,
// and both hash-side choices (relative sizes vary).
func TestOperatorsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	shapes := []struct {
		aAttrs, bAttrs []int
	}{
		{[]int{0, 1}, []int{1, 2}},       // one shared var (single-col fast path)
		{[]int{0, 1, 2}, []int{1, 2, 3}}, // two shared vars (hash-mix path)
		{[]int{0, 1}, []int{0, 1}},       // fully shared
		{[]int{0}, []int{1}},             // disjoint: cross product
	}
	for trial := 0; trial < 60; trial++ {
		sh := shapes[trial%len(shapes)]
		na, nb := rng.Intn(40), rng.Intn(40)
		if trial%2 == 0 {
			na, nb = nb, na // exercise both build sides
		}
		a := randRel(rng, "A", sh.aAttrs, na, 4)
		b := randRel(rng, "B", sh.bAttrs, nb, 4)

		got, want := Join(a, b), refJoin(a, b)
		if len(got.Attrs) != len(want.Attrs) {
			t.Fatalf("trial %d: join schema %v want %v", trial, got.Attrs, want.Attrs)
		}
		for i, v := range want.Attrs {
			if got.Attrs[i] != v {
				t.Fatalf("trial %d: join schema order %v want %v", trial, got.Attrs, want.Attrs)
			}
		}
		got.SortDedup()
		want.SortDedup()
		if !Equal(got, want) {
			t.Fatalf("trial %d: join mismatch (|a|=%d |b|=%d)", trial, a.Len(), b.Len())
		}

		if !Equal(Semijoin(a, b), refSemi(a, b)) {
			t.Fatalf("trial %d: semijoin mismatch", trial)
		}

		// Union over a common schema (remap b onto a's attrs).
		b2 := randRel(rng, "B2", sh.aAttrs, nb, 4)
		u := Union(a, b2)
		for i := 0; i < a.Len(); i++ {
			if refSemi(u, a).Len() == 0 && a.Len() > 0 {
				t.Fatalf("trial %d: union lost rows of a", trial)
			}
		}
		wantU := a.Clone()
		for j := 0; j < b2.Len(); j++ {
			wantU.AddTuple(b2.Row(j))
		}
		wantU.SortDedup()
		if !Equal(u, wantU) {
			t.Fatalf("trial %d: union mismatch", trial)
		}

		// Project onto a random subset of a's vars.
		sub := varset.Empty
		for _, v := range sh.aAttrs {
			if rng.Intn(2) == 0 {
				sub = sub.Add(v)
			}
		}
		p := a.Project(sub)
		seen := map[string]bool{}
		for i := 0; i < p.Len(); i++ {
			seen[fmtRow(p.Row(i))] = true
		}
		wantSeen := map[string]bool{}
		cols := make([]int, 0)
		for _, v := range sub.Intersect(a.VarSet()).Members() {
			cols = append(cols, a.Col(v))
		}
		buf := make(Tuple, len(cols))
		for i := 0; i < a.Len(); i++ {
			for k, c := range cols {
				buf[k] = a.Row(i)[c]
			}
			wantSeen[fmtRow(buf)] = true
		}
		if len(seen) != len(wantSeen) {
			t.Fatalf("trial %d: project cardinality %d want %d", trial, len(seen), len(wantSeen))
		}
		for k := range wantSeen {
			if !seen[k] {
				t.Fatalf("trial %d: project missing row %q", trial, k)
			}
		}
	}
}

func fmtRow(t Tuple) string {
	b := make([]byte, 0, len(t)*3)
	for _, v := range t {
		b = append(b, byte('0'+v), ',')
	}
	return string(b)
}

// The smaller side must be hashed, but the documented output schema
// (a.Attrs ++ b's extras) must hold regardless of which side that is.
func TestJoinSideSwapSchemaStable(t *testing.T) {
	big := New("Big", 0, 1)
	for i := Value(0); i < 100; i++ {
		big.Add(i%10, i)
	}
	small := New("Small", 1, 2)
	small.Add(5, 50)
	for _, pair := range [][2]*Relation{{big, small}, {small, big}} {
		a, b := pair[0], pair[1]
		j := Join(a, b)
		wantAttrs := append([]int(nil), a.Attrs...)
		for _, v := range b.Attrs {
			if a.Col(v) < 0 {
				wantAttrs = append(wantAttrs, v)
			}
		}
		if len(j.Attrs) != len(wantAttrs) {
			t.Fatalf("schema %v want %v", j.Attrs, wantAttrs)
		}
		for i, v := range wantAttrs {
			if j.Attrs[i] != v {
				t.Fatalf("schema %v want %v", j.Attrs, wantAttrs)
			}
		}
	}
}

// --- flat-storage and index-cache behaviour ---

func TestRowIsViewAndAddCopies(t *testing.T) {
	r := New("R", 0, 1)
	buf := Tuple{1, 2}
	r.AddTuple(buf)
	buf[0] = 99 // AddTuple must have copied
	if r.Row(0)[0] != 1 {
		t.Fatal("AddTuple aliased the caller's buffer")
	}
}

func TestZeroArityRelation(t *testing.T) {
	r := New("unit")
	r.Add()
	r.Add()
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	r.SortDedup()
	if r.Len() != 1 {
		t.Fatalf("zero-arity dedup: len = %d, want 1", r.Len())
	}
	ix := r.IndexOn()
	if lo, hi := ix.Lookup(0).Run(nil, nil); lo != 0 || hi != 1 {
		t.Fatalf("Lookup(0).Run() = [%d,%d)", lo, hi)
	}
}

func TestIndexCacheReuseAndInvalidation(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(1, 2)
	ix1 := r.IndexOn(0)
	if r.IndexOn(0) != ix1 {
		t.Fatal("identical priority should hit the cache")
	}
	// Same resolved priority via a foreign leading var also hits.
	if r.IndexOn(0, 7) != ix1 {
		t.Fatal("foreign vars are skipped before the cache key is formed")
	}
	// Different nkey must be a distinct index even with identical order.
	if r.IndexOn(0, 1) == ix1 {
		t.Fatal("different key-prefix length must not alias")
	}
	r.Add(3, 4)
	ix2 := r.IndexOn(0)
	if ix2 == ix1 {
		t.Fatal("mutation must invalidate the cache")
	}
	// The old index stays a consistent snapshot of build time.
	if degree(ix1, 3) != 0 || ix1.Len() != 1 {
		t.Fatal("old index saw the mutation")
	}
	if degree(ix2, 3) != 1 {
		t.Fatal("new index missing the new row")
	}
}

func TestIndexRowPriorityOrder(t *testing.T) {
	r := New("R", 0, 1)
	r.Add(7, 8)
	ix := r.IndexOn(1) // priority (1, 0)
	row := ix.Row(0)
	if row[0] != 8 || row[1] != 7 {
		t.Fatalf("Row not in priority order: %v", row)
	}
}

// Alloc regression: single-column Semijoin must stay O(1) allocations per
// call (hash table + output buffer), not O(rows) as with string keys.
func TestSemijoinAllocRegression(t *testing.T) {
	a := New("A", 0, 1)
	for i := 0; i < 4096; i++ {
		a.Add(Value(i%64), Value(i))
	}
	b := New("B", 1)
	for i := 0; i < 512; i++ {
		b.Add(Value(i * 2))
	}
	allocs := testing.AllocsPerRun(10, func() {
		if Semijoin(a, b).Len() == 0 {
			t.Fatal("empty semijoin")
		}
	})
	if allocs > 20 {
		t.Fatalf("single-column Semijoin allocates %v times per op, want ≤ 20", allocs)
	}
}

// Index probes must not allocate at all.
func TestIndexProbeAllocRegression(t *testing.T) {
	r := New("R", 0, 1)
	for i := 0; i < 2048; i++ {
		r.Add(Value(i%97), Value(i))
	}
	ix := r.IndexOn(0)
	runs := ix.Lookup(1)
	prefix, at := []Value{13}, []int{0}
	allocs := testing.AllocsPerRun(100, func() {
		if lo, hi := runs.Run(prefix, at); ix.MaxDegree(1, 2) == 0 || hi == lo {
			t.Fatal("probe failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("index probes allocate %v times per op, want 0", allocs)
	}
}
