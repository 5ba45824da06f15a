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
// so the children of consecutive nodes are consecutive: level d+1 keeps one
// start array of length len(level d's vals)+1, and node i's children in
// level d+1 are [start[i], start[i+1]). Each child run is sorted and
// duplicate-free, which is what makes galloping intersection (SeekGE) work.
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
	start []int32 // one more than the parent level's nodes; children of parent node i: [start[i], start[i+1]) (nil at level 0)
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

// LevelVals returns the values of every node at level d, one parent's
// child run after another, so sorted and duplicate-free within a run. The
// slice aliases the trie's storage and must not be written.
func (t *TrieIndex) LevelVals(d int) []Value { return t.levels[d].vals }

// LevelStart returns where level d's child runs start: the children of node
// i at level d-1 are [s[i], s[i+1]) in LevelVals(d). It is nil at level 0.
// The slice aliases the trie's storage and must not be written.
func (t *TrieIndex) LevelStart(d int) []int32 { return t.levels[d].start }

// SeekGE returns the first index at or after lo whose value is >= v, or
// len(vals), on a sorted run such as a child run of LevelVals. It gallops
// (exponential probe, then binary search), so seeking from a cursor that
// advances monotonically through the run costs O(1 + log gap) instead of
// O(log run).
func SeekGE(vals []Value, lo int, v Value) int {
	hi := len(vals)
	if lo >= hi || vals[lo] >= v {
		return lo
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
	return l
}
