package lattice

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fd"
	"repro/internal/varset"
)

// CheckDefinitions lets the catalog test in package lattice_test, which
// imports scenario and so cannot live in this package, run checkDefinitions.
var CheckDefinitions = checkDefinitions

// checkDefinitions checks Leq, Meet, Join, UpperCovers and LowerCovers
// against their definitions by brute force over the element set: the order
// is inclusion, meet and join are the greatest lower and least upper bound
// found by enumeration, and y covers x when x < y with nothing strictly
// between. The reference cover lists are built in ascending index order, so
// matching them also checks the order CLLP and CSMA emit LP rows in.
func checkDefinitions(t testing.TB, l *Lattice) {
	t.Helper()
	n := l.Size()
	le := func(i, j int) bool { return l.Elems[j].ContainsAll(l.Elems[i]) }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if l.Leq(i, j) != le(i, j) {
				t.Fatalf("Leq(%v, %v) = %v", l.Elems[i], l.Elems[j], l.Leq(i, j))
			}
			// The greatest lower bound has the largest index among the
			// lower bounds and the least upper bound the smallest among the
			// upper bounds (index order extends the order); then check that
			// they really are greatest and least.
			glb, lub := -1, -1
			for z := 0; z < n; z++ {
				if le(z, i) && le(z, j) {
					glb = z
				}
				if lub < 0 && le(i, z) && le(j, z) {
					lub = z
				}
			}
			if glb < 0 || lub < 0 {
				t.Fatalf("%v and %v have no common lower or upper bound", l.Elems[i], l.Elems[j])
			}
			for z := 0; z < n; z++ {
				if le(z, i) && le(z, j) && !le(z, glb) || le(i, z) && le(j, z) && !le(lub, z) {
					t.Fatalf("%v and %v have no greatest lower or least upper bound", l.Elems[i], l.Elems[j])
				}
			}
			if got := l.Meet(i, j); got != glb {
				t.Fatalf("Meet(%v, %v) = %v, want %v", l.Elems[i], l.Elems[j], l.Elems[got], l.Elems[glb])
			}
			if got := l.Join(i, j); got != lub {
				t.Fatalf("Join(%v, %v) = %v, want %v", l.Elems[i], l.Elems[j], l.Elems[got], l.Elems[lub])
			}
		}
	}
	upper, lower := make([][]int, n), make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || !le(i, j) {
				continue
			}
			between := false
			for z := 0; z < n && !between; z++ {
				between = z != i && z != j && le(i, z) && le(z, j)
			}
			if !between {
				upper[i] = append(upper[i], j)
				lower[j] = append(lower[j], i)
			}
		}
	}
	for i := 0; i < n; i++ {
		if !slices.IsSorted(l.UpperCovers(i)) || !slices.IsSorted(l.LowerCovers(i)) {
			t.Fatalf("covers of %v not in ascending order: up %v, down %v", l.Elems[i], l.UpperCovers(i), l.LowerCovers(i))
		}
		if !slices.Equal(l.UpperCovers(i), upper[i]) {
			t.Fatalf("UpperCovers(%v) = %v, want %v", l.Elems[i], l.UpperCovers(i), upper[i])
		}
		if !slices.Equal(l.LowerCovers(i), lower[i]) {
			t.Fatalf("LowerCovers(%v) = %v, want %v", l.Elems[i], l.LowerCovers(i), lower[i])
		}
	}
}

func TestDefinitionsSmallLattices(t *testing.T) {
	for _, l := range []*Lattice{Boolean(0), Boolean(3), fig1Lattice(), m3Lattice(), n5Lattice()} {
		checkDefinitions(t, l)
	}
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 40; trial++ {
		checkDefinitions(t, randomFDLattice(rng, 1+rng.Intn(6), rng.Intn(6)))
	}
}

// The build is O(|L|·k) closures and O(|L|·k) memory: 2^14 closed sets
// must fit well under 64 MB, where the former |L|² order, meet and join
// tables alone took about 17 bytes a pair (4.5 GB here).
func TestBoolean14BuildMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := Boolean(14)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("Boolean(14) allocated %d MB, want ≤ 64 MB", got>>20)
	}
	if l.Size() != 1<<14 {
		t.Fatalf("|2^14| = %d", l.Size())
	}
	covers := 0
	for i := range l.Elems {
		covers += len(l.UpperCovers(i))
	}
	if covers != 14<<13 {
		t.Fatalf("Boolean(14) has %d covering pairs, want 14·2^13 = %d", covers, 14<<13)
	}
}

// FuzzLatticeDefinitions decodes the input into an FD set over at most 7
// variables (first byte: k; then one (from, to) byte pair per dependency)
// and checks the lattice of its closed sets against the definitions.
// testdata/fuzz/FuzzLatticeDefinitions holds the seed corpus.
func FuzzLatticeDefinitions(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		k := 0
		if len(data) > 0 {
			k = int(data[0]) % 8
			data = data[1:]
		}
		s := fd.NewSet(k)
		for ; k > 0 && len(data) >= 2; data = data[2:] {
			from := varset.Set(data[0]) & varset.Universe(k)
			to := varset.Single(int(data[1]) % k)
			if !from.ContainsAll(to) {
				s.Add(from, to, -1, nil)
			}
		}
		checkDefinitions(t, New(k, s.Closure))
	})
}
