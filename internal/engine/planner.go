package engine

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bounds"
	"repro/internal/csma"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/smalg"
)

// Plan is the planner's decision for one bound instance: which algorithm to
// run, the log2 output/runtime bound it is predicted to respect, and the
// planning artifacts the executor can reuse.
type Plan struct {
	Algorithm Algorithm
	LogBound  float64 // predicted log2 bound (NaN for explicit requests)
	Reason    string  // one-line planner rationale

	Chain lattice.Chain // the good chain to climb (AlgChain only)

	llp      *bounds.LLPResult // LLP optimum the SM proof is tight for
	proof    *smalg.Proof      // good SM proof sequence (AlgSM only)
	explicit bool              // caller forced the algorithm: no fallbacks
}

// tinyInputRows is the total instance size at or below which a binary
// hash-join plan beats every asymptotically better algorithm on constants.
const tinyInputRows = 64

// plan resolves the requested algorithm into a Plan. Explicit requests pass
// through (so callers can still force any algorithm); AlgAuto consults the
// bound analysis. Plans are memoized per instance sizes in the shape's plan
// cache, so re-running a bound instance skips the LP solves.
func (b *Bound) plan(alg Algorithm) (*Plan, error) {
	switch alg {
	case AlgAuto:
		return b.planAuto(), nil
	case AlgChain, AlgSM, AlgCSMA, AlgGenericJoin, AlgBinary:
		return &Plan{Algorithm: alg, LogBound: math.NaN(), Reason: "explicitly requested", explicit: true}, nil
	default:
		return nil, fmt.Errorf("engine: unknown algorithm %q", alg)
	}
}

// Plan exposes the cost-based decision for the bound instance without
// executing it.
func (b *Bound) Plan() *Plan { return b.planAuto() }

func (b *Bound) planAuto() *Plan {
	q := b.q
	var key strings.Builder
	key.WriteString("engine:plan")
	for _, r := range q.Rels {
		fmt.Fprintf(&key, ":%d", r.Len())
	}
	if v, ok := q.PlanCache(key.String()); ok {
		return v.(*Plan)
	}
	p := computePlan(q)
	q.SetPlanCache(key.String(), p)
	return p
}

// computePlan is the decision table (see DESIGN.md):
//
//  1. tiny input → binary hash-join plan (constants dominate);
//  2. no FDs and no degree bounds → Generic-Join (AGM-worst-case-optimal,
//     and the FD-aware machinery has nothing to use);
//  3. otherwise compare the finite FD-aware bounds — best good chain
//     (Thm 5.7), LLP when a good SM proof exists (Thm 5.27), CLLP
//     (Thm 5.37) — and pick the algorithm with the smallest predicted
//     bound, breaking ties toward the cheaper machine
//     (chain ≺ SMA ≺ CSMA);
//  4. no finite FD-aware bound → Generic-Join as the safety net.
func computePlan(q *query.Q) *Plan {
	if q.TotalSize() <= tinyInputRows {
		return &Plan{
			Algorithm: AlgBinary,
			LogBound:  logOrInf(bounds.AGM(q)),
			Reason:    fmt.Sprintf("tiny input (%d ≤ %d rows): binary join plan", q.TotalSize(), tinyInputRows),
		}
	}
	if len(q.FDs.FDs) == 0 && len(q.DegreeBounds) == 0 {
		return &Plan{
			Algorithm: AlgGenericJoin,
			LogBound:  logOrInf(bounds.AGM(q)),
			Reason:    "no FDs or degree bounds: Generic-Join is worst-case optimal (AGM)",
		}
	}

	// FD-aware candidates, in tie-break priority order.
	const eps = 1e-9
	best := &Plan{Algorithm: AlgGenericJoin, LogBound: math.Inf(1),
		Reason: "no finite FD-aware bound: falling back to Generic-Join"}

	cb := bounds.BestChainBound(q, 64)
	if cb.Finite {
		lb, _ := cb.LogBound.Float64()
		best = &Plan{
			Algorithm: AlgChain, LogBound: lb, Chain: cb.Chain,
			Reason: fmt.Sprintf("finite good-chain bound 2^%.2f (chain length %d)", lb, len(cb.Chain)),
		}
	}

	llp := bounds.LLP(q)
	logLLP, _ := llp.LogBound.Float64()
	if logLLP < best.LogBound-eps {
		// The LLP bound only buys an execution if a good SM proof realizes
		// it; the proof search is the expensive part, so gate it on the
		// bound actually improving on the chain.
		if proof := smalg.FindProofAuto(q, llp); proof != nil {
			best = &Plan{
				Algorithm: AlgSM, LogBound: logLLP, llp: llp, proof: proof,
				Reason: fmt.Sprintf("good SM proof tight for LLP bound 2^%.2f < chain bound", logLLP),
			}
		}
	}

	// Through csma's memo, so that a CSMA run of this plan reuses the solve.
	cllp := csma.CLLP(q)
	if cllp.LogBound != nil {
		logCLLP, _ := cllp.LogBound.Float64()
		if logCLLP < best.LogBound-eps {
			best = &Plan{
				Algorithm: AlgCSMA, LogBound: logCLLP,
				Reason: fmt.Sprintf("CLLP bound 2^%.2f beats chain/SM candidates (degree bounds or no good proof)", logCLLP),
			}
		}
	}
	return best
}

func logOrInf(r *bounds.AGMResult) float64 {
	if !r.Finite {
		return math.Inf(1)
	}
	f, _ := r.LogBound.Float64()
	return f
}
