// Package rel is the in-memory relational substrate: relations over
// dictionary-encoded int64 values with sorted-index ("trie") access paths,
// hash joins, semijoins, projections, and degree counting.
//
// It provides the operations the paper's algorithms need with the costs the
// analysis assumes: prefix range lookup and degree counting in O(log N) on a
// sorted index — O(1) expected through the index's hashed lookup, for callers
// that probe one fixed key width many times — and hash join/semijoin in time
// linear in input plus output.
//
// Storage is flat and columnar-friendly: every relation keeps its rows in a
// single contiguous []Value with stride = arity, so row access is a cheap
// subslice view, appends never heap-allocate per row, and scans are
// cache-linear. Hash joins run on a pooled open-addressing flat table
// (flathash.go): one contiguous slot array keyed on an inlined 64-bit mix
// of the join columns with a control-byte fingerprint per slot, and row-id
// runs carved out of a single shared arena — no Go map, no per-key bucket
// slice. Sorted indexes additionally expose a level-ordered trie view
// (trie.go) with galloping range search for worst-case-optimal joins. See
// DESIGN.md for the slot format, the probing and arena scheme, the trie
// levels, and the index cache invalidation rule.
//
// Relations and indexes are not safe for concurrent mutation, but a fully
// built relation may be shared read-only across goroutines: the index cache
// behind IndexOn is mutex-guarded, so concurrent probes and index builds on
// a frozen relation are race-free. Mutators (Add, AddTuple, SortDedup)
// still require exclusive ownership.
package rel

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/varset"
)

// Value is a dictionary-encoded attribute value.
type Value = int64

// Tuple is a row view; its arity matches the relation's attribute list.
// Tuples returned by Row alias the relation's flat storage.
type Tuple []Value

// Relation is a named relation over an ordered list of query variables.
type Relation struct {
	Name  string
	Attrs []int // variable ids; column i holds the value of variable Attrs[i]

	data []Value // flat row storage, stride = len(Attrs)
	n    int     // row count (tracked separately to support arity 0)

	mu      sync.Mutex   // guards the caches; mutators bypass it (exclusive owner)
	cache   []*Index     // guarded by mu; built indexes, keyed by resolved priority + nkey
	lookups []*KeyLookup // guarded by mu; built key lookups, keyed by key columns
}

// New creates an empty relation with the given attribute order.
func New(name string, attrs ...int) *Relation {
	seen := varset.Empty
	for _, a := range attrs {
		if seen.Contains(a) {
			panic(fmt.Sprintf("rel: duplicate attribute %d in relation %s", a, name))
		}
		seen = seen.Add(a)
	}
	return &Relation{Name: name, Attrs: append([]int(nil), attrs...)}
}

// VarSet returns the set of variables of the relation.
func (r *Relation) VarSet() varset.Set { return varset.Of(r.Attrs...) }

// Len returns the number of rows.
func (r *Relation) Len() int { return r.n }

// Arity returns the number of attributes.
func (r *Relation) Arity() int { return len(r.Attrs) }

// Cap returns how many rows the relation's storage holds before an append
// must grow it.
func (r *Relation) Cap() int {
	if len(r.Attrs) == 0 {
		return r.n
	}
	return cap(r.data) / len(r.Attrs)
}

// Grow pre-allocates capacity for n additional rows.
func (r *Relation) Grow(n int) {
	r.data = slices.Grow(r.data, n*len(r.Attrs))
}

// Add appends a row, copying the values into the relation's flat storage.
func (r *Relation) Add(t ...Value) {
	if len(t) != len(r.Attrs) {
		panic(fmt.Sprintf("rel: arity mismatch adding to %s: got %d want %d", r.Name, len(t), len(r.Attrs)))
	}
	r.appendRows(t, 1)
}

// AddTuple appends a row, copying it into flat storage; the caller may
// freely reuse t afterwards.
func (r *Relation) AddTuple(t Tuple) {
	if len(t) != len(r.Attrs) {
		panic(fmt.Sprintf("rel: arity mismatch adding to %s", r.Name))
	}
	r.appendRows(t, 1)
}

// mutated drops the caches, the one thing every mutator must do.
func (r *Relation) mutated() {
	//lint:ignore fdqvet/lockguard mutators run under exclusive ownership (see mu doc): concurrent readers only exist after the relation is sealed
	r.cache, r.lookups = nil, nil
}

// appendRows appends rows rows stored flat in vals (stride = arity).
func (r *Relation) appendRows(vals []Value, rows int) {
	r.mutated()
	r.data = append(r.data, vals...)
	r.n += rows
}

// appendRun appends len(last) rows that share prefix and end in the values of
// last: a trie descent's final level under one path. It writes each row once,
// in place, and grows the storage by doubling — the built-in append's 1.25 ×
// would reallocate, copy and clear about five times a large answer on the way.
func (r *Relation) appendRun(prefix Tuple, last []Value) {
	k := len(r.Attrs)
	if len(prefix)+1 != k {
		panic(fmt.Sprintf("rel: arity mismatch adding a run to %s", r.Name))
	}
	r.mutated()
	at := len(r.data)
	need := at + len(last)*k
	if need > cap(r.data) {
		r.data = append(make([]Value, 0, max(need, 2*cap(r.data))), r.data...)
	}
	r.data = r.data[:need]
	for _, v := range last {
		copy(r.data[at:], prefix)
		r.data[at+k-1] = v
		at += k
	}
	r.n += len(last)
}

// appendRowOf copies row i of src onto the end of r. Internal fast path for
// operators building fresh outputs with the same arity.
func (r *Relation) appendRowOf(src *Relation, i int) {
	k := len(src.Attrs)
	r.data = append(r.data, src.data[i*k:i*k+k]...)
	r.n++
}

// Row returns the i-th row as a view into flat storage (aliased, not
// copied). Treat the view as read-only: writing through it mutates the
// relation without invalidating its index cache (see IndexOn).
func (r *Relation) Row(i int) Tuple {
	k := len(r.Attrs)
	return r.data[i*k : i*k+k : i*k+k]
}

// Rows materializes a slice of row views. It allocates one slice header per
// row; hot paths should iterate with Len/Row instead.
func (r *Relation) Rows() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// Col returns the column position of variable v, or -1.
func (r *Relation) Col(v int) int {
	for i, a := range r.Attrs {
		if a == v {
			return i
		}
	}
	return -1
}

// Value returns row i's value for variable v. It panics if v is not an
// attribute of r.
func (r *Relation) Value(i int, v int) Value {
	c := r.Col(v)
	if c < 0 {
		panic(fmt.Sprintf("rel: relation %s has no attribute %d", r.Name, v))
	}
	return r.data[i*len(r.Attrs)+c]
}

// WithAttrs returns a view of r under a different name and attribute-id
// assignment (same arity, storage shared, fresh index cache). This is how a
// catalog relation — stored once with positional attribute ids — is bound
// to the variables of a particular query without copying its rows. Neither
// the view nor the original may be mutated afterwards: they alias the same
// flat storage.
func (r *Relation) WithAttrs(name string, attrs ...int) *Relation {
	if len(attrs) != len(r.Attrs) {
		panic(fmt.Sprintf("rel: WithAttrs arity mismatch for %s: got %d want %d", name, len(attrs), len(r.Attrs)))
	}
	v := New(name, attrs...) // validates attr uniqueness
	v.data = r.data
	v.n = r.n
	return v
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	c := New(r.Name, r.Attrs...)
	c.data = append([]Value(nil), r.data...)
	c.n = r.n
	return c
}

// cmpRowsAt lexicographically compares rows starting at flat offsets a and b.
func cmpRowsAt(data []Value, a, b, k int) int {
	return cmpRowsAt2(data, data, a, b, k)
}

// SortDedup sorts rows lexicographically in attribute order and removes
// duplicates. Rows already in order (a projection onto a sorted prefix, a
// Define of sorted data) cost one linear pass and no allocation.
func (r *Relation) SortDedup() {
	r.mutated()
	k := len(r.Attrs)
	if k == 0 {
		if r.n > 1 {
			r.n = 1 // all zero-arity rows are equal
		}
		return
	}
	if r.n <= 1 || r.compactSorted() {
		return
	}
	perm := sortedPerm(r.data, r.n, k)
	// Gather in sorted order, skipping duplicates of the previous kept row.
	out := make([]Value, 0, len(r.data))
	n := 0
	for _, p := range perm {
		base := int(p) * k
		if n > 0 && cmpRowsAt2(out, r.data, len(out)-k, base, k) == 0 {
			continue
		}
		out = append(out, r.data[base:base+k]...)
		n++
	}
	r.data = out
	r.n = n
}

// compactSorted squeezes duplicates out of non-decreasing rows in place and
// reports true. At the first row that sorts below its predecessor it closes
// the gap the squeezed duplicates left (the sort would drop them anyway)
// and reports false.
func (r *Relation) compactSorted() bool {
	k := len(r.Attrs)
	w := 1 // rows kept; row w-1 is the last kept row
	for i := 1; i < r.n; i++ {
		c := cmpRowsAt(r.data, (w-1)*k, i*k, k)
		if c > 0 {
			if w != i {
				copy(r.data[w*k:], r.data[i*k:r.n*k])
				r.n -= i - w
				r.data = r.data[:r.n*k]
			}
			return false
		}
		if c < 0 {
			if w != i {
				copy(r.data[w*k:w*k+k], r.data[i*k:i*k+k])
			}
			w++
		}
	}
	r.n = w
	r.data = r.data[:w*k]
	return true
}

// sortedPerm returns row indices sorted by lexicographic row order, equal
// rows in ascending index order. It is the one sort kernel, under SortDedup
// and IndexOn alike. When the rows fit — Σ over columns of the bit width of
// (max − min), plus ⌈log₂ n⌉, is at most 64 — each row is packed into one
// uint64 (its column offsets from the column minima, first column highest,
// above the row index) and the integers are sorted; dictionary-encoded data
// nearly always fits. Otherwise it sorts the indices with a row comparator.
func sortedPerm(data []Value, n, k int) []int32 {
	perm := make([]int32, n)
	if n > 1 && k > 0 && sortPacked(data, n, k, perm) {
		return perm
	}
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := cmpRowsAt(data, int(a)*k, int(b)*k, k); c != 0 {
			return c
		}
		return int(a - b)
	})
	return perm
}

// keyPool recycles sortPacked's key slices, like flatPool its tables.
var keyPool = sync.Pool{New: func() any { return new([]uint64) }}

// sortPacked is sortedPerm's packed-key path: it fills perm and reports
// true, or reports false when the rows do not fit in 64 bits.
func sortPacked(data []Value, n, k int, perm []int32) bool {
	var minBuf, maxBuf [16]Value
	var widthBuf [16]uint8
	mins, maxs, widths := minBuf[:], maxBuf[:], widthBuf[:]
	if k > len(minBuf) {
		mins, maxs, widths = make([]Value, k), make([]Value, k), make([]uint8, k)
	}
	mins, maxs, widths = mins[:k], maxs[:k], widths[:k]
	copy(mins, data[:k])
	copy(maxs, data[:k])
	for base := k; base < n*k; base += k {
		for c, v := range data[base : base+k] {
			mins[c], maxs[c] = min(mins[c], v), max(maxs[c], v)
		}
	}
	idxBits := bits.Len(uint(n - 1))
	total := idxBits
	for c := range widths {
		w := bits.Len64(uint64(maxs[c]) - uint64(mins[c])) // exact even when the difference overflows int64
		if total += w; total > 64 {
			return false
		}
		widths[c] = uint8(w)
	}
	kp := keyPool.Get().(*[]uint64)
	keys := slices.Grow((*kp)[:0], n)[:n]
	for i := range keys {
		var key uint64
		for c, v := range data[i*k : i*k+k] {
			key = key<<widths[c] | (uint64(v) - uint64(mins[c]))
		}
		keys[i] = key<<idxBits | uint64(i)
	}
	slices.Sort(keys)
	idxMask := uint64(1)<<idxBits - 1
	for i, key := range keys {
		perm[i] = int32(key & idxMask)
	}
	*kp = keys
	keyPool.Put(kp)
	return true
}

// cmpRowsAt2 compares a row in da (at offset a) against a row in db (at b).
func cmpRowsAt2(da, db []Value, a, b, k int) int {
	for i := 0; i < k; i++ {
		av, bv := da[a+i], db[b+i]
		if av != bv {
			if av < bv {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Project returns the projection of r onto the given variables (ascending
// variable order), with duplicates removed.
func (r *Relation) Project(vars varset.Set) *Relation {
	keep := vars.Intersect(r.VarSet())
	attrs := keep.Members()
	cols := make([]int, len(attrs))
	for i, v := range attrs {
		cols[i] = r.Col(v)
	}
	out := New(r.Name+"_proj", attrs...)
	k := len(r.Attrs)
	out.data = make([]Value, 0, r.n*len(cols))
	for i := 0; i < r.n; i++ {
		base := i * k
		for _, c := range cols {
			out.data = append(out.data, r.data[base+c])
		}
	}
	out.n = r.n
	out.SortDedup()
	return out
}

// Identical reports whether two relations are byte-identical: the same
// attribute order and the same rows in the same order. Stricter than Equal
// (which compares row sets over the variable set); this is the equality the
// conformance oracle and the parallel-vs-sequential checks demand.
func Identical(a, b *Relation) bool {
	return a.n == b.n && slices.Equal(a.Attrs, b.Attrs) && slices.Equal(a.data, b.data)
}

// Equal reports whether two relations contain the same set of rows over the
// same variable set (attribute order may differ).
func Equal(a, b *Relation) bool {
	if a.VarSet() != b.VarSet() {
		return false
	}
	ap := a.Project(a.VarSet())
	bp := b.Project(b.VarSet())
	if ap.n != bp.n {
		return false
	}
	return slices.Equal(ap.data, bp.data)
}

// --- hash infrastructure ---

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashCols mixes the values of the given columns of the row at flat offset
// base with a word-wise FNV-1a variant plus a final avalanche, so distinct
// key tuples spread over the full 64-bit space. Collisions are possible;
// the flat table (flathash.go) verifies every hash match against a
// representative row with eqCols, so lookups stay exact at any key width.
func hashCols(data []Value, base int, cols []int) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range cols {
		h ^= uint64(data[base+c])
		h *= fnvPrime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// eqColsAt reports whether the row at flat offset ba of da (on colsA) equals
// the row at offset bb of db (on colsB) position-wise.
func eqColsAt(da []Value, ba int, db []Value, bb int, colsA, colsB []int) bool {
	for x := range colsA {
		if da[ba+colsA[x]] != db[bb+colsB[x]] {
			return false
		}
	}
	return true
}

// sharedCols returns the column positions in a and b of their shared
// variables, in ascending variable order.
func sharedCols(a, b *Relation) (ca, cb []int) {
	shared := a.VarSet().Intersect(b.VarSet())
	for _, v := range shared.Members() {
		ca = append(ca, a.Col(v))
		cb = append(cb, b.Col(v))
	}
	return ca, cb
}

// Join computes the natural join of a and b with a hash join, building the
// hash table on the smaller side. The output attribute order is a's
// attributes followed by b's non-shared attributes, regardless of which
// side is hashed.
func Join(a, b *Relation) *Relation {
	ca, cb := sharedCols(a, b)
	bShared := varset.Empty
	for _, c := range cb {
		bShared = bShared.Add(b.Attrs[c])
	}
	var extraCols []int
	outAttrs := append([]int(nil), a.Attrs...)
	for i, v := range b.Attrs {
		if !bShared.Contains(v) {
			extraCols = append(extraCols, i)
			outAttrs = append(outAttrs, v)
		}
	}
	out := New(a.Name+"⋈"+b.Name, outAttrs...)
	if a.n == 0 || b.n == 0 {
		return out
	}
	ka, kb := len(a.Attrs), len(b.Attrs)
	if b.n <= a.n {
		ht := buildHash(b, cb, true)
		for i := 0; i < a.n; i++ {
			abase := i * ka
			for _, bj := range ht.matches(a, i, ca) {
				out.data = append(out.data, a.data[abase:abase+ka]...)
				bbase := int(bj) * kb
				for _, c := range extraCols {
					out.data = append(out.data, b.data[bbase+c])
				}
				out.n++
			}
		}
		ht.release()
	} else {
		ht := buildHash(a, ca, true)
		for j := 0; j < b.n; j++ {
			bbase := j * kb
			for _, ai := range ht.matches(b, j, cb) {
				abase := int(ai) * ka
				out.data = append(out.data, a.data[abase:abase+ka]...)
				for _, c := range extraCols {
					out.data = append(out.data, b.data[bbase+c])
				}
				out.n++
			}
		}
		ht.release()
	}
	return out
}

// Semijoin returns the rows of a that join with at least one row of b.
func Semijoin(a, b *Relation) *Relation {
	ca, cb := sharedCols(a, b)
	ht := buildHash(b, cb, false)
	out := New(a.Name, a.Attrs...)
	out.data = make([]Value, 0, len(a.data))
	for i := 0; i < a.n; i++ {
		if ht.contains(a, i, ca) {
			out.appendRowOf(a, i)
		}
	}
	ht.release()
	return out
}

// SemijoinAll returns the rows of a, in a's order, that join with at least
// one row of every b: one pass over a and one filtered copy, probing each
// b's key lookup on the shared variables — cached on b (LookupOn), so
// relations that outlive the call are hashed once.
func SemijoinAll(a *Relation, bs []*Relation) *Relation {
	type side struct {
		ht   *flatTable
		cols []int // a's columns of the variables shared with this b, ascending
	}
	sides := make([]side, len(bs))
	for j, b := range bs {
		shared := a.VarSet().Intersect(b.VarSet()).Members()
		cols := make([]int, len(shared))
		for x, v := range shared {
			cols[x] = a.Col(v)
		}
		sides[j] = side{b.LookupOn(shared...).ht, cols}
	}
	out := New(a.Name, a.Attrs...)
	out.data = make([]Value, 0, len(a.data))
	ka := len(a.Attrs)
rows:
	for i := 0; i < a.n; i++ {
		for _, s := range sides {
			if _, ok := s.ht.probe(a.data, i*ka, s.cols); !ok {
				continue rows
			}
		}
		out.appendRowOf(a, i)
	}
	return out
}

// Intersect returns rows present in both relations; the relations must be
// over the same variable set.
func Intersect(a, b *Relation) *Relation {
	if a.VarSet() != b.VarSet() {
		panic("rel: Intersect schema mismatch")
	}
	return Semijoin(a, b)
}

// Union returns the set union of two relations over the same variable set.
func Union(a, b *Relation) *Relation {
	if a.VarSet() != b.VarSet() {
		panic("rel: Union schema mismatch")
	}
	out := New(a.Name+"∪"+b.Name, a.Attrs...)
	out.data = make([]Value, 0, len(a.data)+len(b.data))
	out.data = append(out.data, a.data...)
	out.n = a.n
	cols := make([]int, len(a.Attrs))
	for i, v := range a.Attrs {
		cols[i] = b.Col(v)
	}
	kb := len(b.Attrs)
	for j := 0; j < b.n; j++ {
		base := j * kb
		for _, c := range cols {
			out.data = append(out.data, b.data[base+c])
		}
		out.n++
	}
	out.SortDedup()
	return out
}
