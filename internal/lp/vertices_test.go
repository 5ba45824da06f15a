package lp

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// refVertices is the exhaustive enumeration the vertex walk replaced, kept
// as its reference: with p's rows as inequalities a·x ≥ b (an equality as
// two) and the n axes x_j ≥ 0, solve every choice of n of them as equalities
// by Gauss-Jordan elimination over big.Rat and keep the unique solutions
// that are feasible. It solves C(rows+n, n) square systems.
func refVertices(p *Problem) [][]*big.Rat {
	n := p.NumVars
	var rows [][]*big.Rat // each row: n coefficients, then the bound b
	for _, c := range densify(p).Cons {
		row := make([]*big.Rat, n+1)
		for j := range n {
			row[j] = new(big.Rat)
			if c.Coef[j] != nil {
				row[j].Set(c.Coef[j])
			}
		}
		row[n] = new(big.Rat).Set(c.RHS)
		if c.Rel != GE {
			neg := make([]*big.Rat, n+1)
			for j, v := range row {
				neg[j] = new(big.Rat).Neg(v)
			}
			rows = append(rows, neg)
		}
		if c.Rel != LE {
			rows = append(rows, row)
		}
	}
	for j := range n {
		axis := make([]*big.Rat, n+1)
		for k := range axis {
			axis[k] = new(big.Rat)
		}
		axis[j].SetInt64(1)
		rows = append(rows, axis)
	}
	var verts [][]*big.Rat
	seen := map[string]bool{}
	pick := make([]int, 0, n)
	var rec func(start int)
	rec = func(start int) {
		if len(pick) < n {
			for i := start; i < len(rows); i++ {
				pick = append(pick, i)
				rec(i + 1)
				pick = pick[:len(pick)-1]
			}
			return
		}
		x := refSolveSquare(rows, pick, n)
		if x == nil || !refFeasible(rows, x) {
			return
		}
		if k := vertexKey(x); !seen[k] {
			seen[k] = true
			verts = append(verts, x)
		}
	}
	rec(0)
	return verts
}

// refSolveSquare solves the n picked rows as equalities, or returns nil when
// they are singular.
func refSolveSquare(rows [][]*big.Rat, pick []int, n int) []*big.Rat {
	aug := make([][]*big.Rat, n)
	for k, r := range pick {
		aug[k] = make([]*big.Rat, n+1)
		for j, v := range rows[r] {
			aug[k][j] = new(big.Rat).Set(v)
		}
	}
	t := new(big.Rat)
	for col := range n {
		pivot := -1
		for r := col; r < n; r++ {
			if aug[r][col].Sign() != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil
		}
		aug[col], aug[pivot] = aug[pivot], aug[col]
		inv := new(big.Rat).Inv(aug[col][col])
		for j := col; j <= n; j++ {
			aug[col][j].Mul(aug[col][j], inv)
		}
		for r := range n {
			if f := new(big.Rat).Set(aug[r][col]); r != col && f.Sign() != 0 {
				for j := col; j <= n; j++ {
					aug[r][j].Sub(aug[r][j], t.Mul(f, aug[col][j]))
				}
			}
		}
	}
	x := make([]*big.Rat, n)
	for k := range x {
		x[k] = aug[k][n]
	}
	return x
}

// checkRefSolveSquare solves the square system given row by row as n
// coefficients then b, and fails t unless the solution's key is want ("" for
// a singular system).
func checkRefSolveSquare(t *testing.T, want string, vs ...int64) {
	t.Helper()
	n := 1
	for n*(n+1) < len(vs) {
		n++
	}
	rows, pick := make([][]*big.Rat, n), make([]int, n)
	for i := range rows {
		pick[i] = i
		for _, v := range vs[i*(n+1) : (i+1)*(n+1)] {
			rows[i] = append(rows[i], ri(v))
		}
	}
	x := refSolveSquare(rows, pick, n)
	if got := ""; x != nil {
		if got = vertexKey(x); got != want {
			t.Errorf("%v: x = %s, want %s", rows, got, want)
		}
	} else if want != "" {
		t.Errorf("%v: singular, want %s", rows, want)
	}
}

func TestRefSolveSquareIdentity(t *testing.T) {
	checkRefSolveSquare(t, "4|-2|5|", 1, 0, 0, 4, 0, 1, 0, -2, 0, 0, 1, 5)
}

func TestRefSolveSquare2x2(t *testing.T) {
	checkRefSolveSquare(t, "2|1|", 2, 1, 5, 1, -1, 1) // 2x + y = 5, x − y = 1
}

func TestRefSolveSquareNeedsPivot(t *testing.T) {
	checkRefSolveSquare(t, "3|7|", 0, 1, 7, 1, 0, 3) // the first pivot entry is zero
}

func TestRefSolveSquareSingular(t *testing.T) {
	checkRefSolveSquare(t, "", 1, 2, 1, 2, 4, 2)
}

// TestRefSolveSquareRandomRoundTrip requires the reference's solutions of
// random systems to satisfy them.
func TestRefSolveSquareRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for solved := 0; solved < 50; {
		n := 1 + rng.Intn(5)
		rows, pick := make([][]*big.Rat, n), make([]int, n)
		for i := range rows {
			pick[i] = i
			for range n + 1 {
				rows[i] = append(rows[i], randValue(rng, true))
			}
		}
		x := refSolveSquare(rows, pick, n)
		if x == nil {
			continue
		}
		solved++
		for _, row := range rows {
			sum := new(big.Rat)
			for j, v := range x {
				sum.Add(sum, new(big.Rat).Mul(row[j], v))
			}
			if sum.Cmp(row[n]) != 0 {
				t.Fatalf("%v: x = %v leaves a residual", rows, x)
			}
		}
	}
}

func refFeasible(rows [][]*big.Rat, x []*big.Rat) bool {
	sum, t := new(big.Rat), new(big.Rat)
	for _, row := range rows {
		sum.SetInt64(0)
		for j, v := range x {
			sum.Add(sum, t.Mul(row[j], v))
		}
		if sum.Cmp(row[len(x)]) < 0 {
			return false
		}
	}
	return true
}

func vertexKey(x []*big.Rat) string {
	s := ""
	for _, v := range x {
		s += v.RatString() + "|"
	}
	return s
}

// vertexKeys walks p's vertices and returns their sorted keys.
func vertexKeys(t *testing.T, p *Problem) []string {
	t.Helper()
	var keys []string
	if err := Vertices(p, func(x []*big.Rat) bool {
		keys = append(keys, vertexKey(x))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(keys)
	return keys
}

func TestVerticesUnitSimplexCover(t *testing.T) {
	// {w ≥ 0 : w1 + w2 ≥ 1} in R² has the vertices (1,0) and (0,1).
	p := NewProblem(2, false)
	p.Add(GE, ri(1), T(0, 1), T(1, 1))
	if got, want := vertexKeys(t, p), []string{"0|1|", "1|0|"}; !slices.Equal(got, want) {
		t.Fatalf("vertices %v, want %v", got, want)
	}
}

func TestVerticesTriangleCoverPolytope(t *testing.T) {
	// The triangle's edge cover polytope (paper Sec. 2): edges xy, yz, zx
	// covering nodes x, y, z has the vertices (1/2,1/2,1/2), (1,1,0),
	// (1,0,1) and (0,1,1).
	p := NewProblem(3, false)
	p.Add(GE, ri(1), T(0, 1), T(2, 1))
	p.Add(GE, ri(1), T(0, 1), T(1, 1))
	p.Add(GE, ri(1), T(1, 1), T(2, 1))
	want := []string{"0|1|1|", "1/2|1/2|1/2|", "1|0|1|", "1|1|0|"}
	if got := vertexKeys(t, p); !slices.Equal(got, want) {
		t.Fatalf("vertices %v, want %v", got, want)
	}
	// A visitor that stops at the first vertex sees one.
	seen := 0
	if err := Vertices(p, func([]*big.Rat) bool { seen++; return false }); err != nil || seen != 1 {
		t.Fatalf("stopped walk: %d vertices, error %v", seen, err)
	}
}

// diffVertices fails t when the walk and the exhaustive enumeration meet
// different vertices of p. It returns how many they met, or -1 without
// comparing when the enumeration would solve more than maxSystems square
// systems.
func diffVertices(t *testing.T, p *Problem, maxSystems int) int {
	t.Helper()
	rows, n := p.NumVars, p.NumVars
	for _, c := range p.Cons {
		rows++
		if c.Rel == EQ {
			rows++
		}
	}
	systems := 1 // C(rows, n)
	for i := 1; i <= n; i++ {
		systems = systems * (rows - n + i) / i
	}
	if systems > maxSystems {
		return -1
	}
	var want []string
	for _, x := range refVertices(p) {
		want = append(want, vertexKey(x))
	}
	slices.Sort(want)
	if got := vertexKeys(t, p); !slices.Equal(got, want) {
		t.Fatalf("walk met %v, reference %v\n%v", got, want, p)
	}
	return len(want)
}

// TestVerticesMatchReference requires the walk to meet exactly the vertices
// the exhaustive enumeration finds, on random regions that are empty,
// unbounded, degenerate or carry duplicate, zero and equality rows.
func TestVerticesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	compared, empty, many := 0, 0, 0
	for compared < 400 {
		switch n := diffVertices(t, randProblem(rng), 3000); {
		case n < 0:
			continue
		case n == 0:
			empty++
		case n > 3:
			many++
		}
		compared++
	}
	if empty < 20 || many < 20 {
		t.Fatalf("%d empty and %d many-vertex regions of %d: the generator no longer covers both", empty, many, compared)
	}
}
