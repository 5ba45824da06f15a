// Package oracle is the differential conformance layer: it runs a scenario
// instance through every engine configuration (each algorithm, sequential
// and parallel, plus a prepared-rebind pass), compares every output
// byte-for-byte against the naive reference evaluator, certifies the
// planner's predicted output bound (|output| ≤ 2^LogBound), and applies
// metamorphic checks (row/relation permutation invariance, value renaming,
// FD-preserving row duplication — see metamorphic.go).
//
// Two more matrices re-run every instance under perturbation, each filling
// a MatrixResult of named checks: the fault matrix (fault.go) forces panics
// and delays at the injection sites, the wire matrix (wire.go) runs the
// instance through fdqd over loopback, directly and behind the chaos proxy.
//
// An algorithm that is legitimately inapplicable to a shape (SMA with no
// good proof, chain with no finite good-chain bound) is recorded as a skip,
// never silently passed: every other error is a conformance failure.
package oracle

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/chainalg"
	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
	"repro/internal/smalg"
)

// Config is one engine configuration of the conformance matrix.
type Config struct {
	Name      string           `json:"name"`
	Algorithm engine.Algorithm `json:"algorithm"`
	Workers   int              `json:"workers"` // 1 sequential, >1 parallel
}

// DefaultConfigs returns the full matrix: every algorithm (the cost-based
// planner plus each explicit machine) sequential and parallel through the
// morsel work-stealing scheduler.
func DefaultConfigs() []Config {
	algs := []engine.Algorithm{
		engine.AlgAuto, engine.AlgChain, engine.AlgSM,
		engine.AlgCSMA, engine.AlgGenericJoin, engine.AlgBinary,
	}
	var out []Config
	for _, a := range algs {
		out = append(out,
			Config{Name: string(a) + "/seq", Algorithm: a, Workers: 1},
			Config{Name: string(a) + "/par", Algorithm: a, Workers: 3},
		)
	}
	return out
}

// Status values of a config or check.
const (
	StatusPass = "pass"
	StatusFail = "fail"
	StatusSkip = "skip"
)

// ConfigResult reports one configuration run.
type ConfigResult struct {
	Config  string  `json:"config"`
	Status  string  `json:"status"`
	Detail  string  `json:"detail,omitempty"`
	OutRows int     `json:"out_rows"`
	Millis  float64 `json:"millis"`
}

// CheckResult reports one named check.
type CheckResult struct {
	Check  string `json:"check"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// Verdict closes every record: whether all its checks held, what failed,
// and how long the record took. Records embed it last, so its fields close
// their JSON object.
type Verdict struct {
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	Millis   float64  `json:"millis"`
}

func (v *Verdict) fail(format string, args ...any) {
	v.Pass = false
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// finish stamps the time since start; records defer it.
func (v *Verdict) finish(start time.Time) { v.Millis = millis(start) }

func millis(start time.Time) float64 { return float64(time.Since(start).Microseconds()) / 1000 }

// skip is a check's outcome when the check does not apply to the instance
// (a fault site the configuration never reaches, a transformation a UDF
// forbids): recorded as StatusSkip with the reason, never as a pass.
type skip string

func (s skip) Error() string { return string(s) }

// check runs one named check and appends its result to out: a pass on nil,
// a skip on a skip, otherwise a failure recorded on v too.
func check(v *Verdict, out *[]CheckResult, name string, f func() error) {
	cr := CheckResult{Check: name, Status: StatusPass}
	if err := f(); err != nil {
		cr.Status, cr.Detail = StatusFail, err.Error()
		if _, ok := err.(skip); ok {
			cr.Status = StatusSkip
		} else {
			v.fail("%s: %v", name, err)
		}
	}
	*out = append(*out, cr)
}

// reference validates q and returns its naive answer, refusing an empty one:
// an empty reference satisfies every differential, bound, fault and wire
// check trivially, so a catalog instance that produces one is a
// scenario-selection bug, at any tier.
func reference(q *query.Q) (*rel.Relation, error) {
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("instance does not validate: %w", err)
	}
	want := naive.Evaluate(q)
	if want.Len() == 0 {
		return nil, errors.New("reference output is empty: every conformance check would be vacuous")
	}
	return want, nil
}

// MatrixResult is the record of one scenario instance (or of one run-level
// harness) under the fault or the wire matrix: its named checks, or the
// reason the instance cannot run the matrix at all.
type MatrixResult struct {
	Scenario string        `json:"scenario"`
	Checks   []CheckResult `json:"checks"`
	Skipped  string        `json:"skipped,omitempty"` // e.g. a programmatic UDF cannot cross the wire
	Verdict
}

// Result is the full conformance record of one scenario instance.
type Result struct {
	Scenario  string `json:"scenario"`
	Desc      string `json:"desc,omitempty"`
	Vars      int    `json:"vars"`
	Relations int    `json:"relations"`
	InputRows int    `json:"input_rows"`
	OutRows   int    `json:"out_rows"`

	PlanAlgorithm string   `json:"plan_algorithm"`
	PlanReason    string   `json:"plan_reason"`
	PlanLogBound  *float64 `json:"plan_log_bound,omitempty"` // nil when infinite
	// BoundCertified is true when |output| ≤ 2^PlanLogBound held (vacuously
	// for an infinite bound); BoundSlack is PlanLogBound − log2|output|.
	BoundCertified bool     `json:"bound_certified"`
	BoundSlack     *float64 `json:"bound_slack,omitempty"`

	Configs     []ConfigResult `json:"configs"`
	Streaming   []CheckResult  `json:"streaming"`
	Metamorphic []CheckResult  `json:"metamorphic"`

	Verdict
}

// inapplicable reports whether an explicit-algorithm error means the
// algorithm legitimately does not apply to the shape (rather than a bug).
func inapplicable(alg engine.Algorithm, err error) bool {
	switch alg {
	case engine.AlgSM:
		return errors.Is(err, smalg.ErrNoGoodProof)
	case engine.AlgChain:
		return errors.Is(err, chainalg.ErrNoGoodChain)
	}
	return false
}

// CheckInstance runs the full conformance suite on one scenario instance.
func CheckInstance(ctx context.Context, in scenario.Instance, cfgs []Config) (res Result) {
	res = Result{Scenario: in.Name, Desc: in.Family().Desc, Verdict: Verdict{Pass: true}}
	defer res.finish(time.Now())

	q := in.Build()
	res.Vars = q.K
	res.Relations = len(q.Rels)
	res.InputRows = q.TotalSize()
	want, err := reference(q)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	res.OutRows = want.Len()

	p, err := engine.Prepare(q)
	if err != nil {
		res.fail("prepare: %v", err)
		return res
	}
	b, err := p.Bind(nil)
	if err != nil {
		res.fail("bind: %v", err)
		return res
	}

	certifyBound(&res, b.Plan(), want.Len())

	for _, cfg := range cfgs {
		res.Configs = append(res.Configs, runConfig(ctx, &res, b, cfg, want))
	}
	res.Configs = append(res.Configs, runRebind(ctx, &res, p, q, want))
	streamingChecks(ctx, &res, b, q, want)
	metamorphicChecks(ctx, &res, q, want)
	return res
}

// streamingChecks verifies the sink-based execution path against the
// legacy materialized one: a Collect sink must reproduce the reference
// byte-for-byte, a Limit(k) sink must deliver exactly the first k rows of
// it (the streaming order IS the materialized order — that is the whole
// contract), and a Count sink must agree on the cardinality. Sequential
// and parallel flavors both run, since the parallel path streams through a
// different code path (the morsel frontier or the tournament merge).
func streamingChecks(ctx context.Context, res *Result, b *engine.Bound, q *query.Q, want *rel.Relation) {
	add := func(name string, f func() error) { check(&res.Verdict, &res.Streaming, name, f) }
	for _, workers := range []int{1, 3} {
		opts := &engine.Options{Workers: workers, MinParallelRows: 1}
		flavor := map[int]string{1: "seq", 3: "par"}[workers]

		add("stream/collect/"+flavor, func() error {
			sink := rel.NewCollect("Q", q.AllVars().Members()...)
			if _, err := b.RunInto(ctx, opts, sink); err != nil {
				return err
			}
			if !rel.Identical(sink.R, want) {
				return fmt.Errorf("collect sink differs from materialized reference (%d vs %d rows)",
					sink.R.Len(), want.Len())
			}
			return nil
		})

		// k = 1 and the middle of the reference, deduplicated; neither
		// exceeds the reference size, which reference keeps at least 1.
		ks := []int{1}
		if k := (want.Len() + 1) / 2; k > 1 {
			ks = append(ks, k)
		}
		for _, k := range ks {
			add(fmt.Sprintf("stream/limit%d/%s", k, flavor), func() error {
				inner := rel.NewCollect("Q", q.AllVars().Members()...)
				if _, err := b.RunInto(ctx, opts, rel.Limit(inner, k)); err != nil {
					return err
				}
				if inner.R.Len() != k {
					return fmt.Errorf("limit %d delivered %d rows", k, inner.R.Len())
				}
				for i := 0; i < k; i++ {
					if !slices.Equal(inner.R.Row(i), want.Row(i)) {
						return fmt.Errorf("limit %d row %d = %v is not the reference prefix row %v",
							k, i, inner.R.Row(i), want.Row(i))
					}
				}
				return nil
			})
		}

		add("stream/count/"+flavor, func() error {
			var c rel.CountSink
			if _, err := b.RunInto(ctx, opts, &c); err != nil {
				return err
			}
			if c.N != want.Len() {
				return fmt.Errorf("count sink saw %d rows, reference has %d", c.N, want.Len())
			}
			return nil
		})
	}
}

// runConfig executes one configuration and compares against the reference.
func runConfig(ctx context.Context, res *Result, b *engine.Bound, cfg Config, want *rel.Relation) ConfigResult {
	cr := ConfigResult{Config: cfg.Name}
	t0 := time.Now()
	out, _, err := b.Run(ctx, &engine.Options{
		Algorithm:       cfg.Algorithm,
		Workers:         cfg.Workers,
		MinParallelRows: 1,
	})
	cr.Millis = millis(t0)
	switch {
	case err != nil && inapplicable(cfg.Algorithm, err):
		cr.Status = StatusSkip
		cr.Detail = err.Error()
		return cr
	case err != nil:
		cr.Status = StatusFail
		cr.Detail = err.Error()
	case !rel.Identical(out, want):
		cr.Status = StatusFail
		cr.Detail = fmt.Sprintf("output differs from naive reference (%d vs %d rows)", out.Len(), want.Len())
	default:
		cr.Status = StatusPass
	}
	if err == nil {
		cr.OutRows = out.Len()
	}
	if cr.Status == StatusFail {
		res.fail("%s: %s", cfg.Name, cr.Detail)
	}
	return cr
}

// runRebind exercises the prepared-rebind path: the same shape bound to a
// fresh deep copy of the instance must produce the identical output (the
// shared plan records must not leak per-binding state).
func runRebind(ctx context.Context, res *Result, p *engine.Prepared, q *query.Q, want *rel.Relation) ConfigResult {
	cfg := Config{Name: "auto/rebind", Algorithm: engine.AlgAuto, Workers: 1}
	fresh := make([]*rel.Relation, len(q.Rels))
	for j, r := range q.Rels {
		fresh[j] = r.Clone()
	}
	b, err := p.Bind(fresh)
	if err != nil {
		res.fail("rebind: %v", err)
		return ConfigResult{Config: cfg.Name, Status: StatusFail, Detail: err.Error()}
	}
	return runConfig(ctx, res, b, cfg, want)
}

// certifyBound checks |output| ≤ 2^LogBound for the planner's recorded
// plan. A small epsilon absorbs float rounding in the LP solutions; an
// infinite bound certifies vacuously, and an empty output certifies
// trivially — neither records a slack, so the report's slack statistics
// only aggregate scenarios where tightness is meaningful.
func certifyBound(res *Result, pl *engine.Plan, outRows int) {
	res.PlanAlgorithm = string(pl.Algorithm)
	res.PlanReason = pl.Reason
	if math.IsInf(pl.LogBound, 1) {
		res.BoundCertified = true
		return
	}
	lb := pl.LogBound
	res.PlanLogBound = &lb
	if outRows == 0 {
		res.BoundCertified = true
		return
	}
	logOut := 0.0
	if outRows > 1 {
		logOut = math.Log2(float64(outRows))
	}
	slack := lb - logOut
	res.BoundSlack = &slack
	const eps = 1e-6
	if logOut <= lb+eps {
		res.BoundCertified = true
	} else {
		res.BoundCertified = false
		res.fail("bound violated: |output| = %d (2^%.4f) > certified 2^%.4f", outRows, logOut, lb)
	}
}
