package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/query"
)

// diffSolve solves p with the kernel and with the retained big.Rat reference
// and returns a description of the first difference in Status, Objective, X,
// Y or the error, or "" when the two agree exactly.
func diffSolve(p *Problem) string {
	got, gerr := Solve(p)
	want, werr := refSolve(p)
	if gerr != nil || werr != nil {
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Sprintf("error %v, reference %v", gerr, werr)
		}
		return ""
	}
	if got.Status != want.Status {
		return fmt.Sprintf("status %v, reference %v", got.Status, want.Status)
	}
	if got.Status != Optimal {
		if got.Objective != nil || got.X != nil || got.Y != nil {
			return fmt.Sprintf("status %v carries a solution", got.Status)
		}
		return ""
	}
	if got.Objective.Cmp(want.Objective) != 0 {
		return fmt.Sprintf("objective %v, reference %v", got.Objective, want.Objective)
	}
	if d := diffVec("x", got.X, want.X); d != "" {
		return d
	}
	return diffVec("y", got.Y, want.Y)
}

func diffVec(name string, got, want []*big.Rat) string {
	if len(got) != len(want) {
		return fmt.Sprintf("len(%s) %d, reference %d", name, len(got), len(want))
	}
	for i := range got {
		// RatString is the canonical lowest-terms rendering: equal strings
		// are equal values, and a negative zero or an unreduced fraction
		// would show.
		if got[i].RatString() != want[i].RatString() {
			return fmt.Sprintf("%s[%d] = %s, reference %s", name, i, got[i].RatString(), want[i].RatString())
		}
	}
	return ""
}

// randValue draws from the value classes the repository's LPs mix: mostly
// {−1, 0, 1}, some small integers and fractions, some wide dyadic log sizes.
func randValue(rng *rand.Rand, wide bool) *big.Rat {
	switch k := rng.Intn(10); {
	case k < 5:
		return ri(int64(rng.Intn(3) - 1))
	case k < 7:
		return ri(int64(rng.Intn(13) - 4))
	case k < 9 || !wide:
		return rat(int64(rng.Intn(15)-5), int64(1+rng.Intn(6)))
	default:
		v := query.LogRat(2 + rng.Intn(5000))
		if rng.Intn(4) == 0 {
			v.Neg(v)
		}
		return v
	}
}

// randProblem builds a random LP from rng. Roughly: a third are box-bounded
// (always feasible and bounded), the rest are free to be infeasible,
// unbounded or degenerate; rows mix LE/GE/EQ, negative right-hand sides,
// repeated variables, duplicate rows and zero rows.
func randProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(6)
	m := rng.Intn(8)
	p := NewProblem(n, rng.Intn(2) == 0)
	for j := 0; j < n; j++ {
		if rng.Intn(5) > 0 {
			p.SetObj(j, randValue(rng, true))
		}
	}
	degenerate := rng.Intn(3) == 0
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, TR(j, randValue(rng, false)))
			}
		}
		if len(terms) > 0 && rng.Intn(6) == 0 {
			terms = append(terms, terms[rng.Intn(len(terms))]) // repeated variable
		}
		rhs := randValue(rng, true)
		if degenerate && rng.Intn(2) == 0 {
			rhs = new(big.Rat)
		}
		rel := Rel(rng.Intn(3))
		if rng.Intn(4) > 0 {
			rel = LE
		}
		p.Add(rel, rhs, terms...)
		if rng.Intn(8) == 0 {
			p.Add(rel, rhs, terms...) // duplicate row
		}
	}
	if rng.Intn(3) == 0 {
		for j := 0; j < n; j++ {
			p.Add(LE, query.LogRat(2+rng.Intn(100000)), T(j, 1))
		}
	}
	return p
}

func (p *Problem) String() string {
	s := "min"
	if p.Maximize {
		s = "max"
	}
	for j, c := range p.Obj {
		if c != nil {
			s += fmt.Sprintf(" %s·x%d", c.RatString(), j)
		}
	}
	for _, c := range p.Cons {
		s += "\n "
		for _, t := range c.Terms {
			s += fmt.Sprintf(" %s·x%d", t.Coef.RatString(), t.Var)
		}
		s += fmt.Sprintf(" %v %s", c.Rel, c.RHS.RatString())
	}
	return s
}

// TestSolveMatchesReference requires Status, Objective, X, Y and errors
// identical to the pre-kernel solver on random LPs covering every outcome.
func TestSolveMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20160626))
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	if d := diffSolve(&Problem{}); d != "" {
		t.Fatalf("no variables: %s", d)
	}
	seen := map[Status]int{}
	for trial := 0; trial < trials; trial++ {
		p := randProblem(rng)
		if d := diffSolve(p); d != "" {
			t.Fatalf("trial %d: %s\n%v", trial, d, p)
		}
		if s, err := Solve(p); err == nil {
			seen[s.Status]++
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if seen[st] < trials/50 {
			t.Errorf("only %d of %d random LPs were %v: the generator no longer covers that outcome", seen[st], trials, st)
		}
	}
}
