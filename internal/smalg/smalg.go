// Package smalg implements the Sub-Modularity Algorithm (Algorithm 2,
// Sec. 5.2) and the good-proof search it needs.
//
// RunInto is the one entry point. It runs the proof and LLP solution it is
// given, or, given no proof, the good proof and LLP solution at q's sizes
// (GoodProof and LLP, slots of the shape's plan record). A proof's goodness
// depends on the lattice alone (Proof.IsGood), and the h*-derived heavy/light
// thresholds decide only what a step costs (Thm 5.27), not which rows reach
// T(1̂). So a proof found for one instance runs on every instance of the
// shape: a split of it, say.
//
// RunInto is safe to call concurrently on frozen inputs: the initial slot
// tables R_j⁺, their Z-projections and the steps' compiled expansions come
// from the instance's prepared record (expand.Inputs), built once and shared
// read-only; every table a proof step produces is per-run, and none is
// mutated in place (rel.Semijoin, Join and Project return new relations).
//
// Every table a slot holds — an R_j⁺, a projection of one onto a closed set,
// a subset of either, or an expanded join — satisfies every FD whose
// variables lie inside its own variable set. That is what lets the expansion
// of T(X) ⋈ T(Y) fire only the FDs spanning both sides, and why nothing is
// left to check once the T(1̂) tables are united
// (expand.TestTablesAreConsistentOnTheirOwnVariables).
//
// It is sink-based (see rel.Sink): the SM-join tables must materialize
// step by step, so the run buffers; the union of the T(1̂) tables is
// semi-join reduced against every input in one pass, sorted if it is not
// already, and streamed, stopping when the sink does. The run charges its
// Stats.Work to a work.Meter at every proof step and live slot.
package smalg

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/expand"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/work"
)

// Stats reports the work of an SMA execution.
type Stats struct {
	Proof      *Proof
	JoinTuples int        // tuples materialized across all SM-joins
	HeavySizes []int      // |Heavy| per step
	LiteSizes  []int      // |T(X∨Y)| per step
	m          work.Meter // the run's, kept off its stack
}

// Work is the run's counted work, the units its work.Meter is charged in:
// JoinTuples.
func (s *Stats) Work() int { return s.JoinTuples }

// RunInto executes the SM Algorithm (Algorithm 2) for the query using the
// given good proof sequence and the optimal LLP solution h* that the proof
// is tight for, streaming the result into sink. A nil proof is GoodProof(q)
// with LLP(q), whatever llp is, or ErrNoGoodProof when there is none. The
// result is exactly Q^D (the final semi-join reduction filters the union of
// the T(1̂) tables against every input; the FDs were applied as the tables
// were built).
func RunInto(ctx context.Context, q *query.Q, llp *bounds.LLPResult, proof *Proof, sink rel.Sink) (*Stats, error) {
	if proof == nil {
		if proof = GoodProof(q); proof == nil {
			return &Stats{}, ErrNoGoodProof
		}
		llp = LLP(q)
	}
	l := llp.Lat
	e := expand.New(q)
	st := &Stats{Proof: proof}
	st.m.Start(ctx, "")

	hFloat := make([]float64, l.Size())
	for i, h := range llp.H {
		hFloat[i], _ = h.Float64()
	}

	// Tables per slot.
	tables := make([]*rel.Relation, proof.NumSlots)
	var err error
	for i, j := range proof.InitRel {
		if tables[i], err = e.Closed(ctx, j); err != nil {
			return st, err
		}
	}

	const eps = 1e-9
	for _, s := range proof.Steps {
		if err := st.m.Check(ctx, st.Work()); err != nil {
			return st, err
		}
		tx, ty := tables[s.SlotX], tables[s.SlotY]
		if tx == nil || ty == nil {
			return st, fmt.Errorf("smalg: step consumes a dead slot")
		}
		zVars := l.Elems[s.Meet]
		threshold := hFloat[s.Y] - hFloat[s.Meet]

		// Partition Π_Z(T(Y)) into Lite and Heavy by log-degree. A Z-value's
		// degree is how many T(Y) rows its key lookup counts.
		zProj := e.Project(ty, zVars)
		var lite, heavy *rel.Relation
		lite = rel.New("Lite", zProj.Attrs...)
		heavy = rel.New("Heavy", zProj.Attrs...)
		runs := ty.LookupOn(zProj.Attrs...)
		at := make([]int, len(zProj.Attrs))
		for i := range at {
			at[i] = i
		}
		for ri := 0; ri < zProj.Len(); ri++ {
			row := zProj.Row(ri)
			lo, hi := runs.Run(row, at)
			if deg := hi - lo; math.Log2(float64(deg)) <= threshold+eps {
				lite.AddTuple(row)
			} else {
				heavy.AddTuple(row)
			}
		}
		st.HeavySizes = append(st.HeavySizes, heavy.Len())

		// T(X∨Y) = (T(X) ⋈ (T(Y) ⋉ Lite))⁺, expanded to vars(X∨Y).
		joined := rel.Join(tx, rel.Semijoin(ty, lite))
		st.JoinTuples += joined.Len()
		if tables[s.SlotJoin], err = e.ExpandRelation(ctx, joined, l.Elems[s.Join], tx.VarSet(), ty.VarSet()); err != nil {
			return st, err
		}
		st.LiteSizes = append(st.LiteSizes, tables[s.SlotJoin].Len())

		// T(X∧Y) = Π_Z(T(X)) ∩ Heavy; Heavy ⊆ Π_Z(T(Y)) already.
		tables[s.SlotMeet] = rel.Semijoin(e.Project(tx, zVars), heavy)

		tables[s.SlotX], tables[s.SlotY] = nil, nil
	}

	// Union the T(1̂) tables among live slots and semi-join reduce.
	elems := proof.slotElems()
	var out *rel.Relation
	for _, slot := range proof.LiveSlots() {
		if err := st.m.Check(ctx, st.Work()); err != nil {
			return st, err
		}
		if elems[slot] != l.Top || tables[slot] == nil {
			continue
		}
		if out == nil {
			out = tables[slot]
		} else {
			out = rel.Union(out, tables[slot])
		}
	}
	st.m.Stop(st.Work())
	if out == nil {
		return st, nil
	}
	// Semi-join reduce against every input: one pass, one fresh copy (out may
	// be a table of the instance's record, which no sink may adopt). Nothing is
	// left to check after it: every T(1̂) row was expanded, with every FD its
	// two halves did not already satisfy, by the step that built it.
	out = rel.SemijoinAll(out, q.Rels)
	out.SortDedup() // a lone T(1̂) table is in join order; a union is sorted already (one linear pass)
	rel.Stream(out, sink)
	return st, nil
}

// FindProofAuto searches for a good SM proof for the given optimal LLP
// solution: the solver's own dual weights first, then the weights of the
// explicit dual LLP's optimum, another optimal dual whose (w, s) is an
// SM-provable output inequality by construction (Lemma 3.9). Thm 5.27 needs a
// good proof for some optimal dual, and different optimal duals can differ in
// whether one exists (paper/four-cycle-key has one only for the second). It
// searches afresh on every call; GoodProof is the memoized search the planner
// and RunInto share.
func FindProofAuto(q *query.Q, llp *bounds.LLPResult) *Proof {
	if p := findProofFor(llp, llp.W); p != nil {
		return p
	}
	return findProofFor(llp, bounds.SolveDualLLP(llp.Lat, llp.Inputs, q.LogSizes()).W)
}

// The shape's slots for the LLP solution and for its good proof, apart so
// that reading the bound never pays for the proof search.
var (
	llpSlot   = query.NewSlot[*bounds.LLPResult]()
	proofSlot = query.NewSlot[*Proof]()
)

// LLP returns bounds.LLP(q), solved once per (shape, sizes).
func LLP(q *query.Q) *bounds.LLPResult { return llpSlot.Get(q, bounds.LLP) }

// GoodProof returns FindProofAuto(q, LLP(q)), searched once per (shape,
// sizes) and only when asked for; nil — remembered like a proof — when no
// good proof exists.
func GoodProof(q *query.Q) *Proof {
	return proofSlot.Get(q, func(q *query.Q) *Proof { return FindProofAuto(q, LLP(q)) })
}

// ErrNoGoodProof is the error of RunInto with a nil proof, and of an engine
// plan for an explicit SM request, when no good SM proof exists (e.g. Fig. 9
// / Example 5.31): SMA does not apply to the instance, which is not a bug,
// and CSMA is the right tool.
var ErrNoGoodProof = errors.New("smalg: no good SM proof sequence found among optimal dual weights")
