package rel

import (
	"math/bits"
	"slices"
	"sync"
)

// flatTable is an open-addressing hash index over the key columns of a
// relation: one contiguous slot array probed linearly, with a parallel
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
	rel  *Relation
	cols []int

	ctrl  []uint8
	slots []flatSlot
	mask  uint64

	arena []int32 // row-id runs, grouped per distinct key (empty if !needRows)
}

// flatSlot is one occupied entry of the table.
type flatSlot struct {
	hash uint64 // full 64-bit key mix
	rep  int32  // representative build row: exact-equality witness
	off  int32  // arena offset of this key's row-id run
	cnt  int32  // run length (doubles as the fill cursor during build)
}

// fingerprint folds a hash into the occupied-control-byte space [0x80, 0xff].
func fingerprint(h uint64) uint8 { return uint8(h>>57) | 0x80 }

var flatPool = sync.Pool{New: func() any { return new(flatTable) }}

// reset re-sizes the table for n keys, clearing recycled storage. Capacity
// is the power of two keeping the load factor below ~0.8.
func (ht *flatTable) reset(r *Relation, cols []int, n int) {
	ht.rel, ht.cols = r, cols
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
	ht.rel = nil
	ht.cols = nil
	flatPool.Put(ht)
}

// insert finds or claims the slot for row i's key and returns its index.
func (ht *flatTable) insert(i int) uint64 {
	r := ht.rel
	h := hashCols(r.data, i*len(r.Attrs), ht.cols)
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
			if s.hash == h && eqColsAt(r.data, int(s.rep)*len(r.Attrs), r.data, i*len(r.Attrs), ht.cols, ht.cols) {
				return idx
			}
		}
		idx = (idx + 1) & ht.mask
	}
}

// buildHash indexes r on cols. With needRows the table retains every
// matching row id in the arena (for joins); without it only key membership
// is retained — one slot per distinct key, no arena entries at all (the
// semijoin/antijoin path needs nothing more than the representative).
func buildHash(r *Relation, cols []int, needRows bool) *flatTable {
	ht := flatPool.Get().(*flatTable)
	ht.reset(r, cols, r.n)
	if !needRows {
		for i := 0; i < r.n; i++ {
			ht.insert(i)
		}
		return ht
	}
	// Pass 1: count group sizes per distinct key.
	for i := 0; i < r.n; i++ {
		ht.slots[ht.insert(i)].cnt++
	}
	// Carve the arena into per-key runs (prefix sum), then fill in row
	// order — cnt is reused as the fill cursor and ends back at the run
	// length, so each run lists its rows in ascending row id.
	if cap(ht.arena) < r.n {
		ht.arena = make([]int32, r.n)
	} else {
		ht.arena = ht.arena[:r.n]
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
	for i := 0; i < r.n; i++ {
		s := &ht.slots[ht.insert(i)]
		ht.arena[s.off+s.cnt] = int32(i)
		s.cnt++
	}
	return ht
}

// probe locates the slot whose key equals the values at positions pcols of
// the row starting at flat offset base of data, or returns false.
func (ht *flatTable) probe(data []Value, base int, pcols []int) (*flatSlot, bool) {
	h := hashCols(data, base, pcols)
	fp := fingerprint(h)
	idx := h & ht.mask
	rdata, rk := ht.rel.data, len(ht.rel.Attrs)
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

// KeyLookup maps the values of some key variables to the first row of a
// sealed relation carrying them: a flatTable never returned to the pool.
type KeyLookup struct {
	ht   *flatTable
	vars []int // the key variables, in the order Find's positions follow
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

// Find returns the first row whose key variables carry vals[at[0]],
// vals[at[1]], … (at parallel to LookupOn's keyVars), allocating nothing.
func (l *KeyLookup) Find(vals []Value, at []int) (Tuple, bool) {
	s, ok := l.ht.probe(vals, 0, at)
	if !ok {
		return nil, false
	}
	return l.ht.rel.Row(int(s.rep)), true
}
