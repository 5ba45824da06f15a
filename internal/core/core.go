// Package core holds Analyze, the one-call bound and lattice classification
// used by `fdjoin analyze`, the examples and the experiments. Execution goes
// through the public fdq package, or internal/engine
// (Prepare/Bind/Run/RunInto) inside the module.
//
//	q := query.New("x", "y", "z") ... // define relations and FDs
//	a := core.Analyze(q)              // bounds + lattice classification
package core

import (
	"math"

	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/smalg"
)

// Analysis aggregates every bound (in log2) and lattice property.
type Analysis struct {
	LatticeSize   int
	Distributive  bool
	Modular       bool
	BooleanAlg    bool
	HasM3Top      bool // Prop. 4.10 necessary condition for non-normality
	Normal        bool // Theorem 4.9 decision procedure
	SMProofExists bool // a good SM proof for some optimal dual

	LogAGM        float64 // AGM bound ignoring FDs (+Inf if infeasible)
	LogAGMClosure float64 // AGM(Q⁺)
	LogCoatomic   float64 // co-atomic cover bound (valid iff Normal)
	LogLLP        float64 // GLVV bound (LLP optimum)
	LogCLLP       float64 // CLLP with declared degree bounds
	LogChain      float64 // best good chain bound (+Inf if none)

	Chain lattice.Chain // the best good chain found
}

// Analyze computes all bounds and classifications for the query. The chain,
// LLP + proof and CLLP come from the executors' slots, so a run at the same
// sizes afterwards solves none of them again.
func Analyze(q *query.Q) *Analysis {
	l := q.Lattice()
	a := &Analysis{
		LatticeSize:  l.Size(),
		Distributive: l.IsDistributive(),
		Modular:      l.IsModular(),
		BooleanAlg:   l.IsBoolean(),
		HasM3Top:     l.HasM3Top(),
	}
	a.Normal = bounds.IsNormalLattice(q).Normal

	logOf := func(r *bounds.AGMResult) float64 {
		if !r.Finite {
			return math.Inf(1)
		}
		f, _ := r.LogBound.Float64()
		return f
	}
	a.LogAGM = logOf(bounds.AGM(q))
	a.LogAGMClosure = logOf(bounds.AGMClosure(q))
	a.LogCoatomic = logOf(bounds.CoatomicCover(q))

	a.LogLLP, _ = smalg.LLP(q).LogBound.Float64()

	cllp := csma.CLLP(q)
	if cllp.LogBound == nil {
		a.LogCLLP = math.Inf(1)
	} else {
		a.LogCLLP, _ = cllp.LogBound.Float64()
	}

	cb := chainalg.Best(q)
	if cb.Finite {
		a.LogChain, _ = cb.LogBound.Float64()
		a.Chain = cb.Chain
	} else {
		a.LogChain = math.Inf(1)
	}

	a.SMProofExists = smalg.GoodProof(q) != nil
	return a
}
