// Package csma implements the Conditional Sub-Modularity Algorithm of
// Sec. 5.3 — the paper's main algorithm, which runs within the GLVV bound
// (the CLLP optimum) up to a poly-log factor and handles prescribed degree
// bounds, of which cardinalities and FDs are special cases.
//
// The implementation follows the paper's structure:
//
//  1. Solve the conditional LLP and take a dual-optimal (c, s, m)
//     (Sec. 5.3.1).
//  2. Build a CSM plan by the conditional-closure construction of
//     Theorem 5.34: grow K from 0̂ by CD-steps (projections down) and
//     CC-steps (c_{Y|X} > 0), and when K is conditionally closed use
//     Lemma 5.33 to find an SM-step pair (A, B) with s_{A,B} > 0 whose join
//     leaves K.
//  3. Execute the plan. Every CC/SM join conditions T(B) on Z = A∧B and
//     partitions it into ≤ 2·log N degree buckets (Lemma 5.35); buckets
//     whose join fits in the budget 2^{OPT+θ} are joined directly, and
//     buckets that would exceed the budget trigger a restart on a
//     re-solved CLLP that includes the branch's observed cardinalities and
//     degrees, whose optimum provably drops (Lemma 5.36).
//
// The union of the T(1̂) tables across branches, semi-join reduced against
// every input, is exactly Q^D: every state table — an R_j⁺, a projection of
// one onto a closed set, a degree class or intersection of either, or an
// expanded join — satisfies every FD inside its own variables, the expansion
// of T(A) ⋈ T(B) fires the FDs spanning both sides, and so no FD is left to
// check at the end (expand.TestTablesAreConsistentOnTheirOwnVariables).
//
// RunInto is the one entry point. It runs the Plan it is given, or, given
// none, the plan at q's sizes (PlanFor, a slot of the shape's plan record);
// a plan solved for one instance runs on every instance of the shape (see
// Plan).
//
// RunInto is safe to call concurrently on frozen inputs. The initial state,
// the projections and degree-class partitions the plan takes of still-initial
// tables, and the joins' compiled expansions come from the instance's
// prepared record (expand.Inputs), built once and shared read-only; branch
// states, joined tables and the result are per-run. No state table is mutated
// in place: every operation installs a new relation in a cloned state.
//
// It is sink-based (see rel.Sink): the branch union must materialize, and is
// sorted and deduplicated once, before the final semi-join reduction — one
// pass against every input — whose result is streamed, stopping when the sink
// does. Its work is charged to a work.Meter before every plan operation.
package csma

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/big"
	"slices"

	"repro/internal/bounds"
	"repro/internal/expand"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/work"
)

// theta is the budget slack in the exponent: a degree bucket whose join would
// exceed 2^{OPT+θ} restarts its branch (Lemma 5.36); maxRestarts bounds the
// restarts along one branch, after which an overflowing bucket is joined
// anyway.
const (
	theta       = 1.0
	maxRestarts = 8
)

// Stats reports the execution behaviour.
type Stats struct {
	OPT        float64 // initial CLLP optimum (log2)
	Branches   int     // degree-bucket branches executed
	Restarts   int     // CLLP re-solves triggered by budget overflows
	Overflows  int     // joins that exceeded the budget after restart cap
	JoinTuples int     // tuples materialized across CC/SM joins
	PlanLen    int
	m          work.Meter // the run's, kept off its stack
}

// Work is the run's counted work, the units its work.Meter is charged in:
// JoinTuples.
func (s *Stats) Work() int { return s.JoinTuples }

// opKind discriminates plan operations.
type opKind int

const (
	opProj opKind = iota // T(X) := Π_X(T(Y)), X ≺ Y (CD-rule)
	opJoin               // T(A∨B) := (T(A) ⋈ T(B))⁺ conditioned on Z=A∧B (CC/SM-rule)
)

// op is one plan operation over lattice element indices.
type op struct {
	kind opKind
	x, y int // proj: x ≺ y; join: the pair (A, B)
	out  int // element produced
}

// buildPlan runs the Theorem 5.34 construction on a dual solution.
func buildPlan(l *lattice.Lattice, res *bounds.CLLPResult) ([]op, error) {
	inK := make([]bool, l.Size())
	inK[l.Bottom] = true
	var plan []op
	// Inputs (cardinality pairs from 0̂) are already materialized; seed them.
	for i, dp := range res.P {
		if dp.X == l.Bottom && res.C[i].Sign() > 0 {
			inK[dp.Y] = true
		}
	}
	add := func(o op) {
		plan = append(plan, o)
		inK[o.out] = true
	}
	closeK := func() {
		for changed := true; changed; {
			changed = false
			// CD: everything below a member joins K via projection.
			for y := 0; y < l.Size(); y++ {
				if !inK[y] {
					continue
				}
				for x := 0; x < l.Size(); x++ {
					if !inK[x] && l.Lt(x, y) {
						add(op{kind: opProj, x: x, y: y, out: x})
						changed = true
					}
				}
			}
			// CC: c_{Y|X} > 0 with X ∈ K adds Y.
			for i, dp := range res.P {
				if res.C[i].Sign() > 0 && inK[dp.X] && !inK[dp.Y] {
					add(op{kind: opJoin, x: dp.X, y: dp.Y, out: dp.Y})
					changed = true
				}
			}
		}
	}
	// The pairs with s_{A,B} > 0 in ascending (A, B): the first that fits is
	// taken, so the plan is a function of the dual solution, not of map order.
	var pairs []bounds.SubmodPair
	for pr, s := range res.S {
		if s.Sign() > 0 {
			pairs = append(pairs, pr)
		}
	}
	slices.SortFunc(pairs, func(p, q bounds.SubmodPair) int {
		return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y))
	})
	for guard := 0; guard < l.Size()*l.Size()+2; guard++ {
		closeK()
		if inK[l.Top] {
			return plan, nil
		}
		// Lemma 5.33: find A, B ∈ K̄ with s_{A,B} > 0 and A∨B ∉ K̄.
		found := false
		for _, pr := range pairs {
			a, b := pr.X, pr.Y
			if inK[a] && inK[b] && !inK[l.Join(a, b)] {
				add(op{kind: opJoin, x: a, y: b, out: l.Join(a, b)})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("csma: conditional closure stuck before reaching 1̂ (Lemma 5.33 pair not found)")
		}
	}
	return nil, fmt.Errorf("csma: plan construction did not converge")
}

// Plan is CSMA's planning artifact: the CLLP solution at given sizes and the
// Theorem 5.34 CSM plan built from its dual (or the reason there is none).
// Both are functions of the query shape and the sizes only. A run on any
// instance of the shape outputs Q^D under the plan: the CLLP's sizes enter
// only its right-hand side, so the plan's operations stay valid, and the
// budget 2^{OPT+θ} decides only what the run costs (Thm 5.37). So a split of
// an instance runs the whole instance's plan.
type Plan struct {
	CLLP *bounds.CLLPResult
	ops  []op
	err  error // why CSMA cannot run: CLLP unbounded, or no plan from its dual
}

// Err is why CSMA cannot run under the plan, or nil.
func (p *Plan) Err() error { return p.err }

// planSlot is the shape's slot for solvePlan at given sizes: whoever asks
// first — the engine planner comparing bounds, or RunInto —
// pays for the exact-rational LP solve, and every later plan or execution
// at the same sizes reuses it. Failures are kept too. Restart branches
// solve their own branch-specific CLLPs, which are never kept.
var planSlot = query.NewSlot[*Plan]()

// solvePlan solves the CLLP at q's sizes and builds the CSM plan from it.
func solvePlan(q *query.Q) *Plan {
	cp := &Plan{CLLP: bounds.CLLPFromQuery(q)}
	if cp.CLLP.LogBound == nil {
		cp.err = fmt.Errorf("csma: CLLP is unbounded (query not computable from the given constraints)")
	} else {
		cp.ops, cp.err = buildPlan(cp.CLLP.Lat, cp.CLLP)
	}
	return cp
}

// PlanFor returns q's Plan at its instance sizes (CLLP.LogBound nil when the
// CLLP is unbounded), solved once per (shape, sizes): a planner that consults
// the bound and then runs CSMA solves the LP once.
func PlanFor(q *query.Q) *Plan { return planSlot.Get(q, solvePlan) }

// RunInto evaluates the query with CSMA under cp, streaming the result into
// sink. A nil cp is PlanFor(q), the plan at q's own sizes.
func RunInto(ctx context.Context, q *query.Q, cp *Plan, sink rel.Sink) (*Stats, error) {
	if cp == nil {
		cp = PlanFor(q)
	}
	l := q.Lattice()
	e := expand.New(q)
	st := &Stats{}
	st.m.Start(ctx, "")

	if cp.err != nil {
		return st, cp.err
	}
	res, plan := cp.CLLP, cp.ops
	st.OPT, _ = res.LogBound.Float64()
	st.PlanLen = len(plan)

	// Initial state: expanded inputs, intersected on duplicate elements.
	initState := make([]*rel.Relation, l.Size())
	bottom := rel.New("T0")
	bottom.Add()
	initState[l.Bottom] = bottom
	for j, r := range q.Rels {
		elem := l.IndexOfClosure(r.VarSet())
		t, err := e.Closed(ctx, j)
		if err != nil {
			return st, err
		}
		if prev := initState[elem]; prev != nil && elem != l.Bottom {
			t = rel.Intersect(prev, t)
		}
		initState[elem] = t
	}
	// Degree-bound pairs (X, Y) need a guard table for Y: the projection of
	// the guard relation onto vars(Y⁺).
	for _, d := range q.DegreeBounds {
		yElem := l.IndexOfClosure(d.Y)
		if initState[yElem] != nil {
			continue
		}
		g, err := e.Closed(ctx, d.Guard)
		if err != nil {
			return st, err
		}
		initState[yElem] = e.Project(g, l.Elems[yElem])
	}

	results := rel.New("Q", q.AllVars().Members()...)
	budget := math.Exp2(st.OPT + theta)

	// exec runs plan from op idx; opt is the optimum of the CLLP plan was
	// built from, which a restart's re-solve must drop below.
	var exec func(plan []op, idx int, state []*rel.Relation, opt *big.Rat, restarts int) error
	exec = func(plan []op, idx int, state []*rel.Relation, opt *big.Rat, restarts int) error {
		if err := st.m.Check(ctx, st.Work()); err != nil {
			return err
		}
		if idx == len(plan) {
			top := state[l.Top]
			if top != nil {
				results.Grow(top.Len())
				for i := 0; i < top.Len(); i++ {
					results.AddTuple(top.Row(i))
				}
			}
			return nil
		}
		o := plan[idx]
		switch o.kind {
		case opProj:
			ty := state[o.y]
			if ty == nil {
				return fmt.Errorf("csma: projection source %d not materialized", o.y)
			}
			ns := cloneState(state)
			proj := e.Project(ty, l.Elems[o.x])
			if prev := state[o.x]; prev != nil && o.x != l.Bottom {
				proj = rel.Intersect(prev, proj)
			}
			ns[o.x] = proj
			return exec(plan, idx+1, ns, opt, restarts)

		case opJoin:
			ta, tb := state[o.x], state[o.y]
			if ta == nil || tb == nil {
				return fmt.Errorf("csma: join sources (%d,%d) not materialized", o.x, o.y)
			}
			z := l.Meet(o.x, o.y)
			zVars := l.Elems[z]
			// Partition T(B) into degree buckets over Z (Lemma 5.35).
			for _, bk := range e.DegreeClasses(tb, zVars) {
				st.Branches++
				cost := float64(ta.Len()) * float64(bk.MaxDeg)
				if cost > budget && restarts < maxRestarts {
					// Lemma 5.36: re-solve with observed constraints; where
					// the optimum drops, restart this branch on the new plan.
					st.Restarts++
					if plan2, opt2, err := restartBranch(l, res.P, state, o, bk.MaxDeg, z, opt); err == nil {
						ns := cloneState(state)
						ns[o.y] = bk.Table
						if err := exec(plan2, 0, ns, opt2, restarts+1); err != nil {
							return err
						}
						continue
					}
					// Restart failed to tighten; fall through and join.
					st.Overflows++
				} else if cost > budget {
					st.Overflows++
				}
				joined := rel.Join(ta, bk.Table)
				st.JoinTuples += joined.Len()
				outTable, err := e.ExpandRelation(ctx, joined, l.Elems[o.out], ta.VarSet(), bk.Table.VarSet())
				if err != nil {
					return err
				}
				ns := cloneState(state)
				if prev := state[o.out]; prev != nil {
					outTable = rel.Intersect(prev, outTable)
				}
				ns[o.out] = outTable
				ns[o.y] = bk.Table
				if err := exec(plan, idx+1, ns, opt, restarts); err != nil {
					return err
				}
			}
			return nil
		}
		return nil
	}
	if err := exec(plan, 0, initState, res.LogBound, 0); err != nil {
		return st, err
	}
	st.m.Stop(st.Work())

	// Exact answer: order the branch union, then semi-join reduce against
	// every input in one pass. No FD is left to check: every T(1̂) row was
	// expanded, with every FD its two halves did not already satisfy, by the
	// join that built it.
	results.SortDedup()
	rel.Stream(rel.SemijoinAll(results, q.Rels), sink)
	return st, nil
}

func cloneState(state []*rel.Relation) []*rel.Relation {
	return append([]*rel.Relation(nil), state...)
}

// restartBranch re-solves the CLLP with the branch's observed cardinalities
// and the offending degree bound added — the bucket's max degree over Z,
// which its degree class already measured — and returns the plan rebuilt
// from it with its optimum. It returns an error when that optimum does not
// strictly drop below opt, the running plan's (no point restarting).
func restartBranch(l *lattice.Lattice, baseP []bounds.DegreePair, state []*rel.Relation, o op,
	maxDeg, z int, opt *big.Rat) ([]op, *big.Rat, error) {

	P := append([]bounds.DegreePair{}, baseP...)
	for elem, t := range state {
		if t == nil || elem == l.Bottom {
			continue
		}
		P = append(P, bounds.DegreePair{X: l.Bottom, Y: elem, LogBound: query.LogRat(t.Len()), Guard: -1})
	}
	if l.Lt(z, o.y) {
		P = append(P, bounds.DegreePair{X: z, Y: o.y, LogBound: query.LogRat(maxDeg), Guard: -1})
	}
	res2 := bounds.CLLP(l, P)
	if res2.LogBound == nil {
		return nil, nil, fmt.Errorf("csma: restart CLLP unbounded")
	}
	if res2.LogBound.Cmp(opt) >= 0 {
		return nil, nil, fmt.Errorf("csma: restart CLLP optimum %s does not drop below %s", res2.LogBound.FloatString(3), opt.FloatString(3))
	}
	plan2, err := buildPlan(l, res2)
	if err != nil {
		return nil, nil, err
	}
	return plan2, res2.LogBound, nil
}
