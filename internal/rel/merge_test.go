package rel

import (
	"math/rand"
	"slices"
	"testing"
)

// rowsOf materializes a relation's rows as [][]Value for comparison.
func rowsOf(r *Relation) [][]Value {
	out := make([][]Value, r.Len())
	for i := range out {
		out[i] = append([]Value(nil), r.Row(i)...)
	}
	return out
}

// buildSorted makes a relation over attrs from rows and SortDedups it, the
// contract MergeSortedInto requires of each source.
func buildSorted(attrs []int, rows [][]Value) *Relation {
	r := New("part", attrs...)
	for _, row := range rows {
		r.AddTuple(row)
	}
	r.SortDedup()
	return r
}

// randomSortedRuns builds m sorted dedup'd runs of width k with values drawn
// from a small domain so duplicates collide across runs.
func randomSortedRuns(rng *rand.Rand, m, k, maxRows, domain int) []*Relation {
	attrs := make([]int, k)
	for i := range attrs {
		attrs[i] = i
	}
	srcs := make([]*Relation, m)
	for s := range srcs {
		r := New("run", attrs...)
		rows := rng.Intn(maxRows + 1)
		for i := 0; i < rows; i++ {
			row := make(Tuple, k)
			for j := range row {
				row[j] = Value(rng.Intn(domain))
			}
			r.AddTuple(row)
		}
		r.SortDedup()
		srcs[s] = r
	}
	return srcs
}

// concatSortDedup is the merge's reference: every source's rows in one
// relation, sorted and deduplicated from scratch.
func concatSortDedup(srcs []*Relation) *Relation {
	ref := New("Q", srcs[0].Attrs...)
	for _, s := range srcs {
		for i := 0; i < s.Len(); i++ {
			ref.AddTuple(s.Row(i))
		}
	}
	ref.SortDedup()
	return ref
}

// mergeCollect merges srcs into a fresh collector that cannot adopt a run,
// so the merge itself produces every row.
func mergeCollect(t *testing.T, srcs []*Relation) *Relation {
	t.Helper()
	c := NewCollect("Q", srcs[0].Attrs...)
	if !MergeSortedInto(c, srcs) {
		t.Fatal("collect sink stopped the merge")
	}
	return c.R
}

func TestMergeSortedEdgeCases(t *testing.T) {
	cases := []struct {
		name  string
		attrs []int
		parts [][][]Value
		want  [][]Value
	}{
		{
			name:  "single part",
			attrs: []int{0, 1},
			parts: [][][]Value{{{1, 2}, {3, 4}}},
			want:  [][]Value{{1, 2}, {3, 4}},
		},
		{
			name:  "one empty part among non-empty",
			attrs: []int{0, 1},
			parts: [][][]Value{{{5, 5}}, {}, {{1, 1}}},
			want:  [][]Value{{1, 1}, {5, 5}},
		},
		{
			name:  "all parts empty",
			attrs: []int{0, 1},
			parts: [][][]Value{{}, {}, {}},
			want:  [][]Value{},
		},
		{
			name:  "all-duplicate rows across parts",
			attrs: []int{0, 1},
			parts: [][][]Value{
				{{7, 7}, {7, 8}},
				{{7, 7}, {7, 8}},
				{{7, 7}},
			},
			want: [][]Value{{7, 7}, {7, 8}},
		},
		{
			name:  "interleaved runs",
			attrs: []int{0},
			parts: [][][]Value{
				{{0}, {2}, {4}, {6}},
				{{1}, {3}, {5}},
				{{2}, {3}, {7}},
			},
			want: [][]Value{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}},
		},
		{
			name:  "arity-0 with rows",
			attrs: []int{},
			parts: [][][]Value{{{}}, {{}, {}}},
			want:  [][]Value{{}},
		},
		{
			name:  "arity-0 all empty",
			attrs: []int{},
			parts: [][][]Value{{}, {}},
			want:  [][]Value{},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcs := make([]*Relation, len(tc.parts))
			for i, rows := range tc.parts {
				srcs[i] = buildSorted(tc.attrs, rows)
			}
			got := mergeCollect(t, srcs)
			if got.Len() != len(tc.want) {
				t.Fatalf("got %d rows, want %d", got.Len(), len(tc.want))
			}
			for i, row := range rowsOf(got) {
				if !slices.Equal(row, tc.want[i]) {
					t.Fatalf("row %d: got %v want %v", i, row, tc.want[i])
				}
			}
			if ref := concatSortDedup(srcs); !Identical(ref, got) {
				t.Fatalf("merge %v disagrees with concat+SortDedup %v", got.Rows(), ref.Rows())
			}
		})
	}
}

func TestMergeSortedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no sources", func() { MergeSortedInto(&CountSink{}, nil) })
	mustPanic("schema mismatch", func() {
		a := New("A", 0, 1)
		b := New("B", 1, 0)
		MergeSortedInto(&CountSink{}, []*Relation{a, b})
	})
}

// TestMergeTournamentMatchesScan checks the tournament merge against a
// from-scratch reference (concat+SortDedup) across source counts from one to
// hundreds, including empty runs and cross-run duplicates.
func TestMergeTournamentMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 3, 7, 8, 9, 16, 33, 100, 257} {
		for trial := 0; trial < 4; trial++ {
			for _, k := range []int{1, 3} {
				srcs := randomSortedRuns(rng, m, k, 20, 12)
				want, got := concatSortDedup(srcs), mergeCollect(t, srcs)
				if !Identical(want, got) {
					t.Fatalf("m=%d k=%d trial=%d: merge differs from reference:\n got %v\nwant %v",
						m, k, trial, got.Rows(), want.Rows())
				}
			}
		}
	}
}

// TestMergeTournamentEarlyStop checks that a stopping sink halts the merge
// after exactly the limit, with the rows being the true merged prefix — the
// property the engine's LIMIT-k path depends on.
func TestMergeTournamentEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{3, 40} {
		srcs := randomSortedRuns(rng, m, 2, 15, 30)
		want := concatSortDedup(srcs)
		if want.Len() < 5 {
			t.Fatalf("m=%d: test setup too small: %d merged rows", m, want.Len())
		}
		for _, n := range []int{1, 3, want.Len(), want.Len() + 5} {
			inner := NewCollect("Q", srcs[0].Attrs...)
			complete := MergeSortedInto(Limit(inner, n), srcs)
			wantRows := min(n, want.Len())
			if inner.R.Len() != wantRows {
				t.Fatalf("m=%d limit %d: got %d rows, want %d", m, n, inner.R.Len(), wantRows)
			}
			if complete != (n > want.Len()) {
				t.Fatalf("m=%d limit %d: complete=%v", m, n, complete)
			}
			for i := 0; i < wantRows; i++ {
				if !slices.Equal(inner.R.Row(i), want.Row(i)) {
					t.Fatalf("m=%d limit %d: row %d = %v, want %v", m, n, i, inner.R.Row(i), want.Row(i))
				}
			}
		}
	}
}

// TestMergeTournamentAllEmpty covers the all-exhausted-from-the-start case.
func TestMergeTournamentAllEmpty(t *testing.T) {
	srcs := make([]*Relation, 12)
	for i := range srcs {
		srcs[i] = New("e", 0, 1)
	}
	var c CountSink
	if !MergeSortedInto(&c, srcs) || c.N != 0 {
		t.Fatalf("merging 12 empty runs pushed %d rows, want 0", c.N)
	}
}

func TestMergeSortedIntoZeroArity(t *testing.T) {
	a := New("A")
	a.Add()
	b := New("B")
	var c CountSink
	if !MergeSortedInto(&c, []*Relation{b, a}) || c.N != 1 {
		t.Fatalf("zero-arity merge pushed %d rows, want 1", c.N)
	}
	var c2 CountSink
	if !MergeSortedInto(&c2, []*Relation{New("E")}) || c2.N != 0 {
		t.Fatalf("empty zero-arity merge pushed %d rows, want 0", c2.N)
	}
}
