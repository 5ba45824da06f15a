package rel

import "slices"

// loserTree is a tournament tree over k sorted cursors: leaf i is the
// current row of source i, internal nodes hold the *loser* of the match
// played there, and tree[0] holds the overall winner. Advancing the winner
// replays exactly one leaf-to-root path — O(log k) comparisons per emitted
// row instead of a linear scan's O(k).
//
// Exhausted sources are represented by a sentinel "infinite" cursor that
// loses every match, so the tree never shrinks or rebalances.
type loserTree struct {
	srcs []*Relation
	pos  []int // cursor per source
	k    int   // row width
	m    int   // number of leaves (== len(srcs))
	tree []int // internal nodes: source id of the loser; tree[0] = winner
}

// exhausted reports whether source s has no current row.
func (t *loserTree) exhausted(s int) bool { return t.pos[s] >= t.srcs[s].n }

// less reports whether source a's current row sorts strictly before source
// b's; an exhausted source never wins.
func (t *loserTree) less(a, b int) bool {
	ea, eb := t.exhausted(a), t.exhausted(b)
	if ea || eb {
		return !ea
	}
	return cmpRowsAt2(t.srcs[a].data, t.srcs[b].data, t.pos[a]*t.k, t.pos[b]*t.k, t.k) < 0
}

// newLoserTree builds the tournament over the sources' first rows in O(k).
func newLoserTree(srcs []*Relation, width int) *loserTree {
	m := len(srcs)
	t := &loserTree{srcs: srcs, pos: make([]int, m), k: width, m: m, tree: make([]int, m)}
	if m == 1 {
		t.tree[0] = 0
		return t
	}
	// Bottom-up build: winners[j] is the winner of the subtree rooted at
	// internal node j (nodes 1..m-1; leaf i sits "below" node m+i).
	winners := make([]int, 2*m)
	for i := 0; i < m; i++ {
		winners[m+i] = i
	}
	for j := m - 1; j >= 1; j-- {
		a, b := winners[2*j], winners[2*j+1]
		if t.less(a, b) {
			winners[j], t.tree[j] = a, b
		} else {
			winners[j], t.tree[j] = b, a
		}
	}
	t.tree[0] = winners[1]
	return t
}

// winner returns the source holding the least current row, or -1 when all
// sources are exhausted.
func (t *loserTree) winner() int {
	w := t.tree[0]
	if t.exhausted(w) {
		return -1
	}
	return w
}

// advance moves the winner's cursor one row and replays its path to the
// root, restoring the tournament invariant.
func (t *loserTree) advance() {
	w := t.tree[0]
	t.pos[w]++
	if t.m == 1 {
		return
	}
	for j := (t.m + w) / 2; j >= 1; j /= 2 {
		if t.less(t.tree[j], w) {
			t.tree[j], w = w, t.tree[j]
		}
	}
	t.tree[0] = w
}

// MergeSortedInto k-way merges already-sorted duplicate-free sources over
// identical attribute orders (duplicates across sources dropped) into sink,
// pushing each merged row as soon as it wins the merge and stopping the
// merge the moment the sink stops. It reports whether the sink accepted
// every row. This is the morsel path's barrier merge: per-partition outputs
// are sorted and disjoint, so the pushed sequence is byte-identical to the
// sequential execution's output, and a LIMIT-k consumer stops after k rows
// without touching the rest of the partitions' rows. Every source count
// runs the loser-tree tournament: O(log k) comparisons per emitted row.
func MergeSortedInto(sink Sink, srcs []*Relation) bool {
	if len(srcs) == 0 {
		panic("rel: MergeSortedInto needs at least one source")
	}
	k := len(srcs[0].Attrs)
	for _, s := range srcs {
		if !slices.Equal(s.Attrs, srcs[0].Attrs) {
			panic("rel: MergeSortedInto schema mismatch")
		}
	}
	if k == 0 {
		for _, s := range srcs {
			if s.n > 0 {
				return sink.Push(Tuple{})
			}
		}
		return true
	}
	t := newLoserTree(srcs, k)
	last := make(Tuple, k)
	emitted := false
	for {
		w := t.winner()
		if w < 0 {
			return true
		}
		row := srcs[w].Row(t.pos[w])
		t.advance()
		if emitted && cmpRowsAt2(last, row, 0, 0, k) == 0 {
			continue
		}
		copy(last, row)
		emitted = true
		if !sink.Push(row) {
			return false
		}
	}
}
