package query

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/rel"
	"repro/internal/varset"
)

func TestVarsAndNames(t *testing.T) {
	q := New("x", "y", "z")
	if q.K != 3 || q.Var("y") != 1 || q.Var("nope") != -1 {
		t.Fatal("variable lookup wrong")
	}
	if q.Vars("x", "z") != varset.Of(0, 2) {
		t.Fatal("Vars wrong")
	}
}

func TestVarsPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("x").Vars("q")
}

func TestAddRelRejectsUnknownVars(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q := New("x")
	q.AddRel(rel.New("R", 0, 5))
}

func TestLatticeCaching(t *testing.T) {
	q := New("x", "y")
	q.AddRel(rel.New("R", 0, 1))
	l1 := q.Lattice()
	if l1 != q.Lattice() {
		t.Fatal("lattice should be cached")
	}
	q.AddRel(rel.New("S", 0)) // invalidates cache
	if q.state.lat != nil {
		t.Fatal("cache should be invalidated by AddRel")
	}
}

func TestValidateCoverage(t *testing.T) {
	q := New("x", "y")
	q.AddRel(rel.New("R", 0))
	if err := q.Validate(); err == nil {
		t.Fatal("y is uncovered and non-derivable: Validate must fail")
	}
	// With an FD x→y it becomes derivable.
	q.FDs.AddUDF(varset.Of(0), 1, func(a []int64) int64 { return a[0] })
	q.invalidate()
	if err := q.Validate(); err != nil {
		t.Fatalf("derivable variable should validate: %v", err)
	}
}

func TestValidateGuardedFDViolation(t *testing.T) {
	q := New("x", "y")
	r := rel.New("R", 0, 1)
	r.Add(1, 1)
	r.Add(1, 2) // violates x → y
	q.AddRel(r)
	q.FDs.AddGuarded(varset.Of(0), varset.Of(1), 0)
	if err := q.Validate(); err == nil {
		t.Fatal("FD violation must be detected")
	}
}

func TestValidateDegreeBound(t *testing.T) {
	q := New("x", "y")
	r := rel.New("R", 0, 1)
	r.Add(1, 1)
	r.Add(1, 2)
	r.Add(1, 3)
	q.AddRel(r)
	q.AddDegreeBound(varset.Of(0), varset.Of(0, 1), 2, 0)
	if err := q.Validate(); err == nil {
		t.Fatal("degree bound 2 violated by degree 3: must fail")
	}
	q.DegreeBounds[0].MaxDegree = 3
	if err := q.Validate(); err != nil {
		t.Fatalf("degree 3 bound should pass: %v", err)
	}
}

// TestValidateAgainstDistinctCount: on random guard relations, Validate's
// verdict on a guarded FD and on a degree bound is a naive count's: the FD
// holds iff no From-value has two distinct To-values, and X → Y max d holds
// iff no X-value has more than d distinct Y-values.
func TestValidateAgainstDistinctCount(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// maxDistinct is the most distinct y-projections of R's rows that share
	// one x-projection.
	maxDistinct := func(r *rel.Relation, x, y varset.Set) int {
		seen := map[string]map[string]bool{}
		for _, row := range r.Rows() {
			key, val := "", ""
			for _, v := range x.Members() {
				key += fmt.Sprint(",", row[r.Col(v)])
			}
			for _, v := range y.Members() {
				val += fmt.Sprint(",", row[r.Col(v)])
			}
			if seen[key] == nil {
				seen[key] = map[string]bool{}
			}
			seen[key][val] = true
		}
		best := 0
		for _, vals := range seen {
			best = max(best, len(vals))
		}
		return best
	}
	randSet := func() varset.Set {
		var s varset.Set
		for v := 0; v < 4; v++ {
			if rng.Intn(2) == 0 {
				s = s.Add(v)
			}
		}
		return s
	}
	var verdicts [2][2]int // [FD, degree bound][holds, violated]
	tally := func(kind int, err error) {
		if err == nil {
			verdicts[kind][0]++
		} else {
			verdicts[kind][1]++
		}
	}
	for trial := 0; trial < 400; trial++ {
		r := rel.New("R", 3, 1, 0, 2) // a schema order that is not the variables'
		for range rng.Intn(12) {
			r.Add(rel.Value(rng.Intn(3)), rel.Value(rng.Intn(3)), rel.Value(rng.Intn(2)), rel.Value(rng.Intn(3)))
		}
		from, to := randSet(), randSet()
		if to.IsEmpty() {
			to = varset.Single(rng.Intn(4))
		}
		q := New("a", "b", "c", "d")
		q.AddRel(r)
		q.FDs.AddGuarded(from, to, 0)
		err := q.Validate()
		if holds := maxDistinct(r, from, to) <= 1; holds != (err == nil) {
			t.Fatalf("trial %d: FD %s on %v: Validate says %v, the count says holds=%v", trial, q.FDs.FDs[0].Format(q.Names), r.Rows(), err, holds)
		}
		tally(0, err)

		x, y := from, from.Union(to)
		if x == y {
			continue
		}
		d := 1 + rng.Intn(3)
		q = New("a", "b", "c", "d")
		q.AddRel(r)
		q.AddDegreeBound(x, y, d, 0)
		err = q.Validate()
		if got := maxDistinct(r, x, y); (got <= d) != (err == nil) {
			t.Fatalf("trial %d: degree bound %s on %v: Validate says %v, the count says %d", trial, q.DegreeBounds[0].format(q.Names), r.Rows(), err, got)
		}
		tally(1, err)
	}
	for kind, v := range verdicts {
		if v[0] < 20 || v[1] < 20 {
			t.Fatalf("kind %d: %d verdicts hold and %d are violated; want both outcomes exercised", kind, v[0], v[1])
		}
	}
}

// A violation names the FD or degree bound in the query's own variables.
func TestValidateNamesTheViolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		add  func(q *Q)
		want string
	}{
		{"fd", func(q *Q) { q.FDs.AddGuarded(q.Vars("a"), q.Vars("b"), 0) },
			"query: relation R violates FD {a}->{b}"},
		{"composite-fd", func(q *Q) { q.FDs.AddGuarded(q.Vars("a", "c"), q.Vars("b"), 0) },
			"query: relation R violates FD {a,c}->{b}"},
		{"degree", func(q *Q) { q.AddDegreeBound(q.Vars("a"), q.Vars("a", "b"), 2, 0) },
			"query: degree bound {a}->{a,b} max 2 violated by R (max degree 3)"},
		{"degree-guard", func(q *Q) { q.AddDegreeBound(q.Vars("a"), q.Vars("a", "b"), 2, 3) },
			"query: degree bound {a}->{a,b} max 2 has invalid guard 3"},
		{"degree-outside-guard", func(q *Q) { q.AddDegreeBound(q.Vars("c"), q.Vars("b", "c"), 1, 1) },
			"query: degree bound {c}->{b,c} max 1 not contained in guard S"},
	} {
		q := New("a", "b", "c")
		r := rel.New("R", 0, 1, 2)
		r.Add(1, 1, 0)
		r.Add(1, 2, 0)
		r.Add(1, 3, 0)
		q.AddRel(r)
		s := rel.New("S", 0, 2)
		s.Add(1, 0)
		q.AddRel(s)
		tc.add(q)
		if err := q.Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestLogSizes(t *testing.T) {
	q := New("x")
	r := rel.New("R", 0)
	for i := 0; i < 8; i++ {
		r.Add(int64(i))
	}
	q.AddRel(r)
	f, _ := q.LogSizes()[0].Float64()
	if f != 3 {
		t.Fatalf("log2 8 = %v", f)
	}
	if LogRat(0).Sign() != 0 || LogRat(1).Sign() != 0 {
		t.Fatal("LogRat of 0/1 should be 0")
	}
}

const sampleSrc = `
# triangle with a key and a degree bound
vars x y z
rel R(x, y)
rel S(y, z)
rel T(z, x)
fd y -> z guard S
degree R: x -> x y max 2
row R 1 2
row R 1 3
row S 2 5
row S 3 6
row T 5 1
row T 6 1
`

func TestParseRoundTrip(t *testing.T) {
	q, err := Parse(sampleSrc)
	if err != nil {
		t.Fatal(err)
	}
	if q.K != 3 || len(q.Rels) != 3 {
		t.Fatalf("parsed shape wrong: K=%d rels=%d", q.K, len(q.Rels))
	}
	if q.Rels[0].Len() != 2 || q.Rels[1].Len() != 2 {
		t.Fatal("row counts wrong")
	}
	if len(q.FDs.FDs) != 1 || !q.FDs.FDs[0].Guarded() {
		t.Fatal("FD parsing wrong")
	}
	if len(q.DegreeBounds) != 1 || q.DegreeBounds[0].MaxDegree != 2 {
		t.Fatal("degree bound parsing wrong")
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("parsed query should validate: %v", err)
	}
}

func TestParseUDF(t *testing.T) {
	src := `vars x y z
rel R(x)
rel S(y)
fd x y -> z via sum
row R 1
row S 2
`
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	f := q.FDs.FDs[0]
	if f.Guarded() || f.Fns[2] == nil {
		t.Fatal("UDF FD parsing wrong")
	}
	if got := f.Fns[2]([]int64{1, 2}); got != 3 {
		t.Fatalf("sum UDF = %d, want 3", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",                                     // empty
		"rel R(x)",                             // rel before vars
		"vars x\nrel R(q)",                     // unknown var
		"vars x\nrel R(x)\nrow R",              // missing values
		"vars x\nrel R(x)\nrow R 1 2",          // arity
		"vars x\nrel R(x)\nrow Z 1",            // unknown rel
		"vars x\nfrob",                         // unknown directive
		"vars x\nrel R(x)\nfd x ->",            // no target
		"vars x\nrel R(x)\nfd x -> x via nope", // unknown UDF
		"vars x y\nrel S(x,y)\nfd x -> y",      // neither via nor guard
		"vars x y\nrel S(x,y)\nfd x -> y via sum guard S", // both via and guard
		"vars x y\nrel R(x,y)\ndegree R: x -> x y max q",  // bad max
		"vars x\nvars y", // duplicate vars
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("expected parse error for %q", strings.Split(src, "\n")[0])
		}
	}
}

func TestWithFreshRels(t *testing.T) {
	q := New("x")
	q.AddRel(rel.New("R", 0))
	r2 := rel.New("R2", 0)
	r2.Add(7)
	q2 := q.WithFreshRels([]*rel.Relation{r2})
	if q2.Rels[0].Len() != 1 || q.Rels[0].Len() != 0 {
		t.Fatal("WithFreshRels should not alias the original")
	}
}
