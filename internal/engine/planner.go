package engine

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/smalg"
)

// Plan is the planner's decision for one bound instance: which algorithm to
// run, the log2 output/runtime bound it is predicted to respect, and every
// artifact its machine runs. The artifacts are solved once, on the whole
// instance, and run unchanged on every split of it: a chain's and an SM
// proof's goodness and a CSM plan's validity do not depend on the sizes,
// which decide only what a run costs (see DESIGN.md, "What runs inside a
// split").
type Plan struct {
	Algorithm Algorithm
	LogBound  float64 // predicted log2 bound (NaN for explicit requests)
	Reason    string  // one-line planner rationale

	Chain lattice.Chain     // the good chain to climb (AlgChain)
	LLP   *bounds.LLPResult // the LLP solution h* Proof is tight for (AlgSM)
	Proof *smalg.Proof      // the good SM proof to run (AlgSM)
	CSM   *csma.Plan        // the CLLP and its CSM plan (AlgCSMA)

	explicit bool // caller forced the algorithm: no generic-join attempt
}

// planSlot is the shape's slot for the planner's decision at given sizes;
// admitSlot is the slot for the record an auto run is admitted on.
var (
	planSlot  = query.NewSlot[*Plan]()
	admitSlot = query.NewSlot[*Plan]()
)

// plan resolves the requested algorithm into a Plan. AlgAuto consults the
// bound analysis; a plan is kept in the shape's plan record, so re-running a
// bound instance skips the LP solves, and the artifacts it was decided from
// sit in the same record, in the executors' own slots. An explicit request
// runs the executor's own artifact at the whole instance's sizes (the best
// chain, the good SM proof, the CSM plan), or fails with the executor's
// error when there is none: chainalg.ErrNoGoodChain, smalg.ErrNoGoodProof,
// or why no CSM plan exists.
func (b *Bound) plan(alg Algorithm) (*Plan, error) {
	if alg == AlgAuto {
		return b.Plan(), nil
	}
	q := b.q
	p := &Plan{Algorithm: alg, LogBound: math.NaN(), Reason: "explicitly requested", explicit: true}
	switch alg {
	case AlgChain:
		cb := chainalg.Best(q)
		if !cb.Finite {
			return nil, chainalg.ErrNoGoodChain
		}
		p.Chain = cb.Chain
	case AlgSM:
		if p.Proof = smalg.GoodProof(q); p.Proof == nil {
			return nil, smalg.ErrNoGoodProof
		}
		p.LLP = smalg.LLP(q)
	case AlgCSMA:
		if p.CSM = csma.PlanFor(q); p.CSM.Err() != nil {
			return nil, p.CSM.Err()
		}
	case AlgGenericJoin, AlgBinary:
	default:
		return nil, fmt.Errorf("engine: unknown algorithm %q", alg)
	}
	return p, nil
}

// Plan exposes the cost-based decision for the bound instance without
// executing it.
func (b *Bound) Plan() *Plan { return planSlot.Get(b.q, computePlan) }

// Admission is the record every auto run is admitted and started on, on one
// worker or many: its LogBound is Plan().LogBound, but on a degree-free FD
// shape it is only the LLP optimum, with Algorithm AlgAuto (machine not
// chosen yet). The run tries generic join under that bound and calls Plan()
// at its first overrun (attemptInto). FD-free and degree-bound shapes admit
// on Plan() itself: their plans are cheap, or need the CLLP anyway.
func (b *Bound) Admission() *Plan { return admitSlot.Get(b.q, computeAdmission) }

func computeAdmission(q *query.Q) *Plan {
	if len(q.FDs.FDs) == 0 || len(q.DegreeBounds) > 0 {
		return planSlot.Get(q, computePlan)
	}
	return admitFDAware(q)
}

// admitFDAware is planFDAware's bound on a degree-free shape without its
// machine: no good chain bound is below the LLP (Thm 5.3) and a degree-free
// CLLP is the LLP (Prop. 5.32), so the plan's bound is the LLP optimum.
func admitFDAware(q *query.Q) *Plan {
	logLLP, _ := smalg.LLP(q).LogBound.Float64()
	return &Plan{
		Algorithm: AlgAuto, LogBound: logLLP,
		Reason: fmt.Sprintf("GLVV bound 2^%.2f (LLP): machine chosen at the first overrun", logLLP),
	}
}

// computePlan is the decision table (see DESIGN.md):
//
//  1. no FDs and no degree bounds → Generic-Join (AGM-worst-case-optimal,
//     and the FD-aware machinery has nothing to use);
//  2. otherwise compare the finite FD-aware bounds — best good chain
//     (Thm 5.7), LLP when a good SM proof exists (Thm 5.27), CLLP
//     (Thm 5.37) — and pick the algorithm with the smallest predicted
//     bound, breaking ties toward the cheaper machine
//     (chain ≺ SMA ≺ CSMA): planFDAware;
//  3. no finite FD-aware bound → Generic-Join as the safety net.
//
// No row reads the instance's size: a small FD instance is certified by its
// FD-aware bound like a large one, as the FD-blind AGM bound is loose, and
// infinite where a variable is derived by FDs alone.
func computePlan(q *query.Q) *Plan {
	if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 {
		return &Plan{
			Algorithm: AlgGenericJoin,
			LogBound:  logOrInf(bounds.AGM(q)),
			Reason:    "no FDs or degree bounds: Generic-Join is worst-case optimal (AGM)",
		}
	}
	return planFDAware(q)
}

// planFDAware picks among the FD-aware candidates, in tie-break priority
// order, from the LLP floor up: no good chain bound is below the LLP optimum
// (Thm 5.3), and without degree bounds the CLLP is the LLP (Prop. 5.32). So
// the chain search stops at the first chain that reaches the floor
// (chainalg.Best), and the CLLP is solved only where it can still win: the
// query has degree bounds, or the LLP beat the chain and no good SM proof
// realized it. Every skipped solve is one whose bound could not have won by
// eps, so the plan is the one a full chain search, LLP and CLLP would make.
func planFDAware(q *query.Q) *Plan {
	const eps = 1e-9
	best := &Plan{Algorithm: AlgGenericJoin, LogBound: math.Inf(1),
		Reason: "no finite FD-aware bound: falling back to Generic-Join"}

	llp := smalg.LLP(q)
	logLLP, _ := llp.LogBound.Float64()

	cb := chainalg.Best(q)
	if cb.Finite {
		lb, _ := cb.LogBound.Float64()
		best = &Plan{
			Algorithm: AlgChain, LogBound: lb, Chain: cb.Chain,
			Reason: fmt.Sprintf("finite good-chain bound 2^%.2f (chain length %d)", lb, len(cb.Chain)),
		}
	}

	if logLLP < best.LogBound-eps {
		// The LLP bound only buys an execution if a good SM proof realizes
		// it; the proof search is the expensive part, so gate it on the
		// bound actually improving on the chain.
		if proof := smalg.GoodProof(q); proof != nil {
			best = &Plan{
				Algorithm: AlgSM, LogBound: logLLP, LLP: llp, Proof: proof,
				Reason: fmt.Sprintf("good SM proof tight for LLP bound 2^%.2f < chain bound", logLLP),
			}
		}
	}

	// A degree-free CLLP equals the LLP, which beats the plan so far only
	// when SM was wanted and had no proof.
	if len(q.DegreeBounds) == 0 && logLLP >= best.LogBound-eps {
		return best
	}
	if cp := csma.PlanFor(q); cp.CLLP.LogBound != nil {
		logCLLP, _ := cp.CLLP.LogBound.Float64()
		if logCLLP < best.LogBound-eps {
			best = &Plan{
				Algorithm: AlgCSMA, LogBound: logCLLP, CSM: cp,
				Reason: fmt.Sprintf("CLLP bound 2^%.2f beats chain/SM candidates (degree bounds or no good proof)", logCLLP),
			}
		}
	}
	return best
}

// Analysis aggregates every bound (in log2) and lattice property of a
// query: what `fdjoin analyze` and cmd/experiments print.
type Analysis struct {
	LatticeSize   int
	Distributive  bool
	Modular       bool
	BooleanAlg    bool
	HasM3Top      bool // Prop. 4.10 necessary condition for non-normality
	Normal        bool // Theorem 4.9 decision procedure
	SMProofExists bool // a good SM proof for the solver's or the explicit dual's weights (smalg.GoodProof)

	LogAGM        float64 // AGM bound ignoring FDs (+Inf if infeasible)
	LogAGMClosure float64 // AGM(Q⁺)
	LogCoatomic   float64 // co-atomic cover bound (valid iff Normal)
	LogLLP        float64 // GLVV bound (LLP optimum)
	LogCLLP       float64 // CLLP with declared degree bounds
	LogChain      float64 // best good chain bound (+Inf if none)

	Chain lattice.Chain // the best good chain found
}

// Analyze computes all bounds and classifications for the query. The chain,
// LLP + proof and CLLP come from the same slots the planner and executors
// read, so a plan or run at the same sizes afterwards solves none of them
// again.
func Analyze(q *query.Q) *Analysis {
	l := q.Lattice()
	a := &Analysis{
		LatticeSize:   l.Size(),
		Distributive:  l.IsDistributive(),
		Modular:       l.IsModular(),
		BooleanAlg:    l.IsBoolean(),
		HasM3Top:      l.HasM3Top(),
		Normal:        bounds.IsNormalLattice(q).Normal,
		LogAGM:        logOrInf(bounds.AGM(q)),
		LogAGMClosure: logOrInf(bounds.AGMClosure(q)),
		LogCoatomic:   logOrInf(bounds.CoatomicCover(q)),
		LogCLLP:       math.Inf(1),
		LogChain:      math.Inf(1),
	}
	a.LogLLP, _ = smalg.LLP(q).LogBound.Float64()
	if cllp := csma.PlanFor(q).CLLP; cllp.LogBound != nil {
		a.LogCLLP, _ = cllp.LogBound.Float64()
	}
	if cb := chainalg.Best(q); cb.Finite {
		a.LogChain, _ = cb.LogBound.Float64()
		a.Chain = cb.Chain
	}
	a.SMProofExists = smalg.GoodProof(q) != nil
	return a
}

// logOrInf is an AGM-style bound in log2, +Inf when it is infinite.
func logOrInf(r *bounds.AGMResult) float64 {
	if !r.Finite {
		return math.Inf(1)
	}
	f, _ := r.LogBound.Float64()
	return f
}
