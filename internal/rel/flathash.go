package rel

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// flatTable is an open-addressing hash index over the key columns of flat
// row storage (a relation's, or an Index's sorted copy): one contiguous slot
// array probed linearly, with a parallel
// control-byte array (0 = empty, else a 7-bit fingerprint of the hash with
// the top bit set) so most probe steps touch one byte instead of a 24-byte
// slot. Matching row ids live in a single shared arena slice addressed by
// (offset, count) per slot — no per-key heap slice, no bucket chains.
//
// Every slot stores a representative build-side row id and equality is
// always verified against it column-wise, so lookups are exact for any key
// width (including the single-column case, which needs no special path) and
// two distinct key tuples that collide in the full 64-bit mix simply occupy
// two slots.
//
// Tables are pooled: buildHash takes one from flatPool and callers release
// it when the operator returns, so steady-state joins allocate only when a
// table outgrows every previously pooled one.
type flatTable struct {
	data   []Value // the build side's rows, flat
	stride int     // row width of data
	cols   []int

	ctrl  []uint8
	slots []flatSlot
	mask  uint64

	arena []int32 // row-id runs, grouped per distinct key (empty if !needRows)
}

// flatSlot is one occupied entry of the table.
type flatSlot struct {
	hash uint64 // full 64-bit key mix
	rep  int32  // first build row carrying the key: exact-equality witness
	off  int32  // arena offset of this key's row-id run
	cnt  int32  // rows carrying the key (doubles as the fill cursor during build)
}

// fingerprint folds a hash into the occupied-control-byte space [0x80, 0xff].
func fingerprint(h uint64) uint8 { return uint8(h>>57) | 0x80 }

var flatPool = sync.Pool{New: func() any { return new(flatTable) }}

// reset re-sizes the table for n keys, clearing recycled storage. Capacity
// is the power of two keeping the load factor below ~0.8.
func (ht *flatTable) reset(data []Value, stride int, cols []int, n int) {
	ht.data, ht.stride, ht.cols = data, stride, cols
	want := 8
	if n > 6 {
		want = 1 << bits.Len(uint(n+n/4))
	}
	if cap(ht.ctrl) >= want {
		ht.ctrl = ht.ctrl[:want]
		clear(ht.ctrl)
		ht.slots = ht.slots[:want]
	} else {
		ht.ctrl = make([]uint8, want)
		ht.slots = make([]flatSlot, want)
	}
	ht.mask = uint64(want - 1)
	ht.arena = ht.arena[:0]
}

// release returns the table (and its storage) to the pool.
func (ht *flatTable) release() {
	ht.data = nil
	ht.cols = nil
	flatPool.Put(ht)
}

// insert finds or claims the slot for row i's key and returns its index.
func (ht *flatTable) insert(i int) uint64 {
	h := hashCols(ht.data, i*ht.stride, ht.cols)
	fp := fingerprint(h)
	idx := h & ht.mask
	for {
		c := ht.ctrl[idx]
		if c == 0 {
			ht.ctrl[idx] = fp
			ht.slots[idx] = flatSlot{hash: h, rep: int32(i)}
			return idx
		}
		if c == fp {
			s := &ht.slots[idx]
			if s.hash == h && eqColsAt(ht.data, int(s.rep)*ht.stride, ht.data, i*ht.stride, ht.cols, ht.cols) {
				return idx
			}
		}
		idx = (idx + 1) & ht.mask
	}
}

// buildHash indexes r on cols. With needRows the table retains every
// matching row id in the arena (for joins); without it one slot per distinct
// key — its first row and how many rows carry it — and no arena entries at
// all (semijoins and key lookups need nothing more).
func buildHash(r *Relation, cols []int, needRows bool) *flatTable {
	ht := flatPool.Get().(*flatTable)
	ht.fill(r.data, len(r.Attrs), r.n, cols, needRows)
	return ht
}

// fill builds the table over the n rows of data (see buildHash).
func (ht *flatTable) fill(data []Value, stride, n int, cols []int, needRows bool) {
	ht.reset(data, stride, cols, n)
	// Pass 1: count group sizes per distinct key.
	for i := 0; i < n; i++ {
		ht.slots[ht.insert(i)].cnt++
	}
	if !needRows {
		return
	}
	// Carve the arena into per-key runs (prefix sum), then fill in row
	// order — cnt is reused as the fill cursor and ends back at the run
	// length, so each run lists its rows in ascending row id.
	if cap(ht.arena) < n {
		ht.arena = make([]int32, n)
	} else {
		ht.arena = ht.arena[:n]
	}
	off := int32(0)
	for idx := range ht.slots {
		if ht.ctrl[idx] != 0 {
			s := &ht.slots[idx]
			s.off = off
			off += s.cnt
			s.cnt = 0
		}
	}
	for i := 0; i < n; i++ {
		s := &ht.slots[ht.insert(i)]
		ht.arena[s.off+s.cnt] = int32(i)
		s.cnt++
	}
}

// probe locates the slot whose key equals the values at positions pcols of
// the row starting at flat offset base of data, or returns false.
func (ht *flatTable) probe(data []Value, base int, pcols []int) (*flatSlot, bool) {
	h := hashCols(data, base, pcols)
	fp := fingerprint(h)
	idx := h & ht.mask
	rdata, rk := ht.data, ht.stride
	for {
		c := ht.ctrl[idx]
		if c == 0 {
			return nil, false
		}
		if c == fp {
			s := &ht.slots[idx]
			if s.hash == h && eqColsAt(rdata, int(s.rep)*rk, data, base, ht.cols, pcols) {
				return s, true
			}
		}
		idx = (idx + 1) & ht.mask
	}
}

// matches returns the build-side row ids whose key equals row ip of rp
// (keyed on pcols) — already verified, never a false positive. Only valid
// on tables built with needRows.
func (ht *flatTable) matches(rp *Relation, ip int, pcols []int) []int32 {
	if s, ok := ht.probe(rp.data, ip*len(rp.Attrs), pcols); ok {
		return ht.arena[s.off : s.off+s.cnt]
	}
	return nil
}

// contains reports whether some build-side row matches row ip of rp exactly
// on the key columns.
func (ht *flatTable) contains(rp *Relation, ip int, pcols []int) bool {
	_, ok := ht.probe(rp.data, ip*len(rp.Attrs), pcols)
	return ok
}

// KeyLookup is the hashed access path: it maps the values of some key
// variables to the rows carrying them, through a flatTable that is never
// returned to the pool. Relation.LookupOn keys a relation's rows as stored,
// and Find returns the first row carrying a key (an FD guard's row, a
// semijoin's witness). Index.Lookup keys an Index's sorted rows on their
// leading columns, where the rows carrying one key are consecutive, so Run
// returns their interval, and its length is the key's degree, in O(1)
// expected.
type KeyLookup struct {
	ht   *flatTable
	vars []int // the key variables, in the order the probe positions follow
}

// LookupOn builds (or returns the cached) key lookup on the given attributes
// of r; the cache follows IndexOn's rules.
func (r *Relation) LookupOn(keyVars ...int) *KeyLookup {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range r.lookups {
		if slices.Equal(l.vars, keyVars) {
			return l
		}
	}
	cols := make([]int, len(keyVars))
	for i, v := range keyVars {
		cols[i] = r.Col(v)
	}
	l := &KeyLookup{ht: buildHash(r, cols, false), vars: slices.Clone(keyVars)}
	r.lookups = append(r.lookups, l)
	return l
}

// Lookup builds (or returns the cached) key lookup on the first nkey columns
// of the index's sorted rows: O(N) once, kept as long as the index. It counts
// as an index build (IndexBuilds).
func (ix *Index) Lookup(nkey int) *KeyLookup {
	if nkey > ix.arity {
		panic(fmt.Sprintf("rel: key longer than index on %s", ix.rel.Name))
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, l := range ix.lookups {
		if len(l.vars) == nkey {
			return l
		}
	}
	indexBuilds.Add(1)
	cols := make([]int, nkey)
	for i := range cols {
		cols[i] = i
	}
	ht := flatPool.Get().(*flatTable)
	ht.fill(ix.data, ix.arity, ix.n, cols, false)
	l := &KeyLookup{ht: ht, vars: ix.attrs[:nkey]}
	ix.lookups = append(ix.lookups, l)
	return l
}

// Find returns the first row whose key variables carry vals[at[0]],
// vals[at[1]], … (at parallel to the lookup's key variables), allocating
// nothing. The row is a view of the keyed storage: a relation's row for
// LookupOn, an index's (priority column order) for Index.Lookup.
func (l *KeyLookup) Find(vals []Value, at []int) (Tuple, bool) {
	s, ok := l.ht.probe(vals, 0, at)
	if !ok {
		return nil, false
	}
	base := int(s.rep) * l.ht.stride
	return l.ht.data[base : base+l.ht.stride : base+l.ht.stride], true
}

// Run returns the interval [lo, hi) of row positions carrying the key
// vals[at[0]], vals[at[1]], … (lo = hi when none does), allocating nothing.
// It is an interval only where equal keys are consecutive — an Index.Lookup;
// on a LookupOn, lo is the first such row and hi-lo how many there are.
func (l *KeyLookup) Run(vals []Value, at []int) (lo, hi int) {
	s, ok := l.ht.probe(vals, 0, at)
	if !ok {
		return 0, 0
	}
	return int(s.rep), int(s.rep + s.cnt)
}
