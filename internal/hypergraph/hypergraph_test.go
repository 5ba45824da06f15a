package hypergraph

import (
	"fmt"
	"math/big"
	"slices"
	"testing"

	"repro/internal/lp"
	"repro/internal/varset"
)

// unitLogSizes returns a vector of m ones, for unweighted ρ*.
func unitLogSizes(m int) []*big.Rat {
	out := make([]*big.Rat, m)
	for i := range out {
		out[i] = big.NewRat(1, 1)
	}
	return out
}

func triangle() *H {
	h := New(3)
	h.AddEdge("R", varset.Of(0, 1))
	h.AddEdge("S", varset.Of(1, 2))
	h.AddEdge("T", varset.Of(2, 0))
	return h
}

func TestTriangleRhoStar(t *testing.T) {
	h := triangle()
	res := h.FractionalEdgeCover(unitLogSizes(3))
	if !res.Finite {
		t.Fatal("triangle cover is finite")
	}
	if res.Value.Cmp(big.NewRat(3, 2)) != 0 {
		t.Fatalf("ρ* = %v, want 3/2", res.Value)
	}
}

func TestWeightedCover(t *testing.T) {
	// Make edge T free: cover = T + one of R/S… T covers z,x; y needs R or
	// S. Optimal: w_T = 1 (cost 0) + w_R or w_S = 1.
	h := triangle()
	sizes := []*big.Rat{big.NewRat(4, 1), big.NewRat(5, 1), new(big.Rat)}
	res := h.FractionalEdgeCover(sizes)
	if res.Value.Cmp(big.NewRat(4, 1)) != 0 {
		t.Fatalf("weighted cover = %v, want 4", res.Value)
	}
}

func TestPackingDuality(t *testing.T) {
	h := triangle()
	sizes := []*big.Rat{big.NewRat(3, 1), big.NewRat(4, 1), big.NewRat(5, 1)}
	cover := h.FractionalEdgeCover(sizes)
	pack := h.FractionalVertexPacking(sizes)
	if pack == nil || cover.Value.Cmp(pack.Value) != 0 {
		t.Fatalf("duality gap: cover %v packing %v", cover.Value, pack)
	}
}

func TestIsolatedVertex(t *testing.T) {
	h := New(3)
	h.AddEdge("R", varset.Of(0, 1)) // node 2 isolated
	if !h.HasIsolatedVertex() {
		t.Fatal("node 2 is isolated")
	}
	if h.FractionalEdgeCover(unitLogSizes(1)).Finite {
		t.Fatal("cover with isolated vertex must be infinite")
	}
	if h.FractionalVertexPacking(unitLogSizes(1)) != nil {
		t.Fatal("packing with isolated vertex is unbounded")
	}
}

func TestCoverPolytopeVertices(t *testing.T) {
	// Paper Sec. 2: the triangle's edge cover polytope has exactly the 4
	// vertices (1/2,1/2,1/2), (1,1,0), (1,0,1), (0,1,1).
	var vs []string
	err := lp.Vertices(triangle().CoverLP(unitLogSizes(3)), func(w []*big.Rat) bool {
		vs = append(vs, fmt.Sprint(w))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(vs)
	if want := []string{"[0/1 1/1 1/1]", "[1/1 0/1 1/1]", "[1/1 1/1 0/1]", "[1/2 1/2 1/2]"}; !slices.Equal(vs, want) {
		t.Fatalf("vertices %v, want %v", vs, want)
	}
}

func TestSingleEdgeGraph(t *testing.T) {
	h := New(2)
	h.AddEdge("R", varset.Of(0, 1))
	res := h.FractionalEdgeCover(unitLogSizes(1))
	if res.Value.Cmp(big.NewRat(1, 1)) != 0 {
		t.Fatalf("single edge cover = %v, want 1", res.Value)
	}
}

func TestFourCycleCover(t *testing.T) {
	// 4-cycle: ρ* = 2 (two opposite edges).
	h := New(4)
	h.AddEdge("R", varset.Of(0, 1))
	h.AddEdge("S", varset.Of(1, 2))
	h.AddEdge("T", varset.Of(2, 3))
	h.AddEdge("K", varset.Of(3, 0))
	res := h.FractionalEdgeCover(unitLogSizes(4))
	if res.Value.Cmp(big.NewRat(2, 1)) != 0 {
		t.Fatalf("4-cycle ρ* = %v, want 2", res.Value)
	}
}

func TestEmptyEdgeIgnoredInPacking(t *testing.T) {
	h := New(1)
	h.AddEdge("E", varset.Empty)
	h.AddEdge("R", varset.Of(0))
	pack := h.FractionalVertexPacking([]*big.Rat{new(big.Rat), big.NewRat(2, 1)})
	if pack == nil || pack.Value.Cmp(big.NewRat(2, 1)) != 0 {
		t.Fatalf("packing = %v, want 2", pack)
	}
}
