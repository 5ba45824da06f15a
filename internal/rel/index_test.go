package rel

import (
	"slices"
	"testing"
)

// scanRange is the linear-scan reference for a prefix's rows in an index:
// the half-open interval of sorted positions whose leading columns equal
// prefix (empty, at the first row past it, when none does).
func scanRange(ix *Index, prefix ...Value) (lo, hi int) {
	for lo < ix.n && slices.Compare(ix.Row(lo)[:len(prefix)], prefix) < 0 {
		lo++
	}
	for hi = lo; hi < ix.n && slices.Equal(ix.Row(hi)[:len(prefix)], prefix); hi++ {
	}
	return lo, hi
}

// degree is the number of ix's rows whose leading columns carry key, read
// from the length of the key's hashed run.
func degree(ix *Index, key ...Value) int {
	at := make([]int, len(key))
	for i := range at {
		at[i] = i
	}
	lo, hi := ix.Lookup(len(key)).Run(key, at)
	return hi - lo
}

// FuzzMaxDegree checks MaxDegree(nkey, nprefix) for every 0 ≤ nkey ≤
// nprefix ≤ arity against a map count of the distinct nprefix-prefixes per
// nkey-key, on arbitrary relations of arity 0-4 under an arbitrary priority.
// Values fold into a domain of 4, so keys repeat, and rows are not
// deduplicated, so whole rows repeat too.
func FuzzMaxDegree(f *testing.F) {
	f.Add(2, uint8(0), []byte{1, 1, 1, 2, 1, 3, 2, 1})
	f.Add(3, uint8(5), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0})
	f.Add(1, uint8(0), []byte{3, 3, 3})
	f.Add(0, uint8(0), []byte{7, 7})
	f.Add(4, uint8(9), []byte{})
	f.Fuzz(func(t *testing.T, arity int, rot uint8, data []byte) {
		arity = int(uint(arity) % 5)
		attrs := make([]int, arity)
		for i := range attrs {
			attrs[i] = i
		}
		r := New("R", attrs...)
		row := make(Tuple, arity)
		nRows := len(data)
		if arity > 0 {
			nRows = len(data) / arity
		}
		for i := 0; i < nRows; i++ {
			for c := range row {
				row[c] = Value(data[i*arity+c] % 4)
			}
			r.AddTuple(row)
		}
		prio := slices.Clone(attrs) // the priority: attrs rotated by rot
		if arity > 0 {
			k := int(rot) % arity
			prio = append(prio[k:], prio[:k]...)
		}
		ix := r.IndexOn(prio...)
		for nkey := 0; nkey <= arity; nkey++ {
			for nprefix := nkey; nprefix <= arity; nprefix++ {
				prefixes := map[string]map[string]bool{}
				for _, t := range r.Rows() {
					var key, pre []byte
					for i, v := range ix.Attrs()[:nprefix] {
						b := byte(t[r.Col(v)])
						if pre = append(pre, b); i < nkey {
							key = append(key, b)
						}
					}
					if prefixes[string(key)] == nil {
						prefixes[string(key)] = map[string]bool{}
					}
					prefixes[string(key)][string(pre)] = true
				}
				want := 0
				for _, p := range prefixes {
					want = max(want, len(p))
				}
				if got := ix.MaxDegree(nkey, nprefix); got != want {
					t.Fatalf("arity %d, priority %v, %d rows: MaxDegree(%d, %d) = %d, want %d",
						arity, ix.Attrs(), r.Len(), nkey, nprefix, got, want)
				}
			}
		}
	})
}
