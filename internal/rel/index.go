package rel

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

var indexBuilds atomic.Int64

// IndexBuilds returns how many indexes IndexOn, and hashed lookups
// Index.Lookup, have built (cache misses) so far in this process; a warm run
// over sealed relations adds none.
func IndexBuilds() int64 { return indexBuilds.Load() }

// Index is a sorted access path over a relation: rows ordered
// lexicographically under a chosen variable priority, so the rows sharing a
// prefix are consecutive. Three views read it: Lookup hashes a key prefix to
// its run of rows in O(1) expected, Trie lays the levels out for generic
// join's descent, and MaxDegree answers every degree question in one pass.
//
// The index keeps its own flat copy of the rows with columns permuted into
// priority order and rows sorted, so every scan is a direct stride walk over
// contiguous memory. An Index is therefore a consistent snapshot: mutating
// the relation afterwards does not affect it.
type Index struct {
	rel   *Relation
	data  []Value // n rows × arity, columns in priority order, rows sorted
	n     int
	arity int
	nkey  int   // how many leading cols correspond to the requested key vars
	attrs []int // variable ids in priority order

	trieOnce sync.Once // guards the lazy trie view (see trie.go)
	trie     *TrieIndex

	mu      sync.Mutex   // guards lookups
	lookups []*KeyLookup // guarded by mu; hashed lookups on leading columns, keyed by width
}

// IndexOn builds (or returns a cached) index whose sort priority starts with
// keyVars (in the given order); the relation's remaining attributes follow
// in their schema order. Variables in keyVars that are not attributes of r
// are skipped.
//
// Indexes are cached on the relation keyed by the resolved priority order
// plus key-prefix length; any mutation of the relation (Add, AddTuple,
// SortDedup) invalidates the cache. Cached indexes already handed out stay
// valid as snapshots of the relation at build time. The cache is
// mutex-guarded, so concurrent IndexOn calls on a frozen relation are safe
// (a build holds the lock: racing callers wait and receive the cached
// index). A cache hit allocates nothing: the resolved priority lives in a
// stack buffer compared directly against the cached indexes' attrs.
func (r *Relation) IndexOn(keyVars ...int) *Index {
	var colsBuf, attrsBuf [16]int
	cols, attrs := colsBuf[:0], attrsBuf[:0]
	if k := len(r.Attrs); k > len(colsBuf) {
		cols, attrs = make([]int, 0, k), make([]int, 0, k)
	}
	for _, v := range keyVars {
		c := r.Col(v)
		if c < 0 || slices.Contains(attrs, v) {
			continue
		}
		cols = append(cols, c)
		attrs = append(attrs, v)
	}
	nkey := len(cols)
	for c, v := range r.Attrs {
		if !slices.Contains(attrs[:nkey], v) {
			cols = append(cols, c)
			attrs = append(attrs, v)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ix := range r.cache {
		if ix.nkey == nkey && slices.Equal(ix.attrs, attrs) {
			return ix
		}
	}

	indexBuilds.Add(1)
	k := len(r.Attrs)
	n := r.n
	ix := &Index{rel: r, n: n, arity: k, nkey: nkey,
		attrs: append([]int(nil), attrs...)}
	// Gather rows into priority-column order, then sort a permutation with
	// direct stride compares and gather once more into sorted order.
	flat := make([]Value, n*k)
	for i := 0; i < n; i++ {
		src := r.data[i*k:]
		dst := flat[i*k:]
		for p, c := range cols {
			dst[p] = src[c]
		}
	}
	if k > 0 && n > 1 {
		perm := sortedPerm(flat, n, k)
		sorted := make([]Value, n*k)
		for p, i := range perm {
			copy(sorted[p*k:p*k+k], flat[int(i)*k:int(i)*k+k])
		}
		flat = sorted
	}
	ix.data = flat
	r.cache = append(r.cache, ix)
	return ix
}

// Len returns the number of indexed rows.
func (ix *Index) Len() int { return ix.n }

// Row returns the row at sorted position pos, in the index's priority
// order (aliased into the index's flat storage): element i is the value of
// variable Attr(i).
func (ix *Index) Row(pos int) Tuple {
	base := pos * ix.arity
	return ix.data[base : base+ix.arity : base+ix.arity]
}

// Attr returns the variable id at index priority position i.
func (ix *Index) Attr(i int) int { return ix.attrs[i] }

// Attrs returns the variable ids in priority order (aliased).
func (ix *Index) Attrs() []int { return ix.attrs }

// MaxDegree returns the largest number of distinct nprefix-prefixes that
// share one nkey-key: max_v |Π_{first nprefix}(σ_{key=v}(R))|, the degree of
// Eq. 18 in one pass over the sorted rows. A guarded FD From → To holds iff
// it is at most 1 on an index keyed (From, To∖From) with nprefix |From ∪
// To|; nkey = 0 counts distinct prefixes, nprefix = arity a key's rows.
func (ix *Index) MaxDegree(nkey, nprefix int) int {
	if nkey < 0 || nkey > nprefix || nprefix > ix.arity {
		panic(fmt.Sprintf("rel: MaxDegree(%d, %d) on an index of arity %d on %s", nkey, nprefix, ix.arity, ix.rel.Name))
	}
	best, deg := 0, 0
	for pos := 0; pos < ix.n; pos++ {
		row := ix.data[pos*ix.arity:]
		c := 0 // the first prefix column where the row leaves its predecessor
		if pos > 0 {
			prev := ix.data[(pos-1)*ix.arity:]
			for c < nprefix && row[c] == prev[c] {
				c++
			}
			if c == nprefix {
				continue // the same prefix again
			}
		}
		if c < nkey {
			deg = 0 // a new key
		}
		deg++
		best = max(best, deg)
	}
	return best
}
