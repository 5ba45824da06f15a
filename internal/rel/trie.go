package rel

// TrieIndex is a level-ordered trie view over a sorted Index: level d holds
// one node per distinct value path of the first d+1 priority columns, laid
// out as flat arrays (column-major value runs plus per-node child ranges
// into the next level). It is the materialized form of the trie iterators
// LFTJ/Generic-Join assume: a variable step intersects the child runs of
// the current nodes of every relation instead of re-binary-searching each
// relation's full index per probe.
//
// Nodes at each level are stored in the order induced by the sorted rows,
// so the children of consecutive nodes are consecutive: level d keeps one
// start array of length len(vals)+1 and node i's children in level d+1 are
// [start[i], start[i+1]). Each child run is sorted and duplicate-free,
// which is what makes galloping intersection (SeekGE) work.
//
// A TrieIndex is immutable after construction and, like the Index it views,
// a consistent snapshot of the relation at index build time.
type TrieIndex struct {
	ix     *Index
	levels []trieLevel
}

// trieLevel is one level of the trie in flat form.
type trieLevel struct {
	vals  []Value // node values, grouped by parent, sorted within each group
	start []int32 // len(vals)+1; children of node i: [start[i], start[i+1]) in the next level (nil at the deepest level)
}

// Trie returns the (lazily built, cached) trie view of the index. Safe for
// concurrent use; the build runs at most once per index.
func (ix *Index) Trie() *TrieIndex {
	ix.trieOnce.Do(func() { ix.trie = buildTrie(ix) })
	return ix.trie
}

// buildTrie walks the sorted index data once per level. Within a fixed
// prefix the next column is sorted, so distinct values are runs; total cost
// is O(N · arity) plus the output.
func buildTrie(ix *Index) *TrieIndex {
	t := &TrieIndex{ix: ix, levels: make([]trieLevel, ix.arity)}
	k := ix.arity
	if k == 0 || ix.n == 0 {
		return t
	}
	// rowLo[i] is the first row of node i at the current level; one extra
	// entry holds n so node i spans rows [rowLo[i], rowLo[i+1]).
	rowLo := []int32{0, int32(ix.n)}
	for d := 0; d < k; d++ {
		lv := &t.levels[d]
		var nextRowLo []int32
		for p := 0; p+1 < len(rowLo); p++ {
			lo, hi := int(rowLo[p]), int(rowLo[p+1])
			if d > 0 {
				lv.start = append(lv.start, int32(len(lv.vals)))
			}
			for pos := lo; pos < hi; {
				v := ix.data[pos*k+d]
				lv.vals = append(lv.vals, v)
				nextRowLo = append(nextRowLo, int32(pos))
				for pos++; pos < hi && ix.data[pos*k+d] == v; pos++ {
				}
			}
		}
		if d > 0 {
			lv.start = append(lv.start, int32(len(lv.vals)))
			// Move the per-parent starts onto the previous level, where the
			// child-range lookup happens.
			t.levels[d-1].start = lv.start
			lv.start = nil
		}
		nextRowLo = append(nextRowLo, int32(ix.n))
		rowLo = nextRowLo
	}
	return t
}

// Attr returns the variable id at trie level d (identical to the index's
// priority order).
func (t *TrieIndex) Attr(d int) int { return t.ix.attrs[d] }

// Levels returns the trie depth (the relation's arity).
func (t *TrieIndex) Levels() int { return len(t.levels) }

// Root returns the node range of level 0: every distinct value of the first
// priority column.
func (t *TrieIndex) Root() (lo, hi int32) {
	if len(t.levels) == 0 {
		return 0, 0
	}
	return 0, int32(len(t.levels[0].vals))
}

// Children returns the node range in level d+1 holding the children of node
// at level d.
func (t *TrieIndex) Children(d int, node int32) (lo, hi int32) {
	s := t.levels[d].start
	return s[node], s[node+1]
}

// Val returns the value of a node at level d.
func (t *TrieIndex) Val(d int, node int32) Value { return t.levels[d].vals[node] }

// Vals returns the values of nodes [lo, hi) at level d — a child run when
// the range is one, so sorted and duplicate-free. The slice aliases the
// trie's storage and must not be written.
func (t *TrieIndex) Vals(d int, lo, hi int32) []Value { return t.levels[d].vals[lo:hi:hi] }

// SeekGE returns the first node in [lo, hi) at level d whose value is >= v,
// using galloping (exponential probe then binary search), so seeking from a
// cursor that advances monotonically through the run costs O(1 + log gap)
// instead of O(log run).
func (t *TrieIndex) SeekGE(d int, lo32, hi32 int32, v Value) int32 {
	vals := t.levels[d].vals
	lo, hi := int(lo32), int(hi32)
	if lo >= hi || vals[lo] >= v {
		return lo32
	}
	// Gallop: find a window (lo, lo+step] with vals[lo+step] >= v.
	step := 1
	for lo+step < hi && vals[lo+step] < v {
		lo += step
		step <<= 1
	}
	// vals[lo] < v; binary search (lo, min(lo+step, hi)].
	l, h := lo+1, min(lo+step, hi)
	for l < h {
		mid := int(uint(l+h) >> 1)
		if vals[mid] < v {
			l = mid + 1
		} else {
			h = mid
		}
	}
	return int32(l)
}

// Seek returns the node in [lo, hi) at level d holding exactly v, or -1.
func (t *TrieIndex) Seek(d int, lo, hi int32, v Value) int32 {
	p := t.SeekGE(d, lo, hi, v)
	if p < hi && t.levels[d].vals[p] == v {
		return p
	}
	return -1
}
