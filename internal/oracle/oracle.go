// Package oracle is the differential conformance layer: it runs a scenario
// instance through every engine configuration (each algorithm, sequential
// and parallel, plus a prepared-rebind pass), compares every output
// byte-for-byte against the naive reference evaluator, certifies the
// planner's predicted output bound (|output| ≤ 2^LogBound), and applies
// metamorphic checks (row/relation permutation invariance, value renaming,
// FD-preserving row duplication — see metamorphic.go).
//
// An algorithm that is legitimately inapplicable to a shape (SMA with no
// good proof, chain with no finite good-chain bound) is recorded as a skip,
// never silently passed: every other error is a conformance failure.
package oracle

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/naive"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/scenario"
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

// Status values of a config or metamorphic check.
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

// CheckResult reports one metamorphic check.
type CheckResult struct {
	Check  string `json:"check"`
	Status string `json:"status"`
	Detail string `json:"detail,omitempty"`
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

	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	Millis   float64  `json:"millis"`
}

func (r *Result) fail(format string, args ...any) {
	r.Pass = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// inapplicable reports whether an explicit-algorithm error means the
// algorithm legitimately does not apply to the shape (rather than a bug).
func inapplicable(alg engine.Algorithm, err error) bool {
	switch alg {
	case engine.AlgSM:
		return strings.Contains(err.Error(), "no good SM proof")
	case engine.AlgChain:
		return strings.Contains(err.Error(), "no good chain")
	}
	return false
}

// CheckInstance runs the full conformance suite on one scenario instance.
func CheckInstance(ctx context.Context, in scenario.Instance, cfgs []Config) (res Result) {
	start := time.Now()
	res = Result{Scenario: in.Name, Desc: in.Family().Desc, Pass: true}
	defer func() { res.Millis = float64(time.Since(start).Microseconds()) / 1000 }()

	q := in.Build()
	res.Vars = q.K
	res.Relations = len(q.Rels)
	res.InputRows = q.TotalSize()
	if err := q.Validate(); err != nil {
		res.fail("instance does not validate: %v", err)
		return res
	}

	want := naive.Evaluate(q)
	res.OutRows = want.Len()
	if want.Len() == 0 {
		// An empty reference output satisfies every differential, bound, and
		// metamorphic check trivially; a catalog instance that produces one
		// is a scenario-selection bug, at any tier.
		res.fail("reference output is empty: every conformance check would be vacuous")
		return res
	}

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
	res.Streaming = streamingChecks(ctx, &res, b, q, want)
	res.Metamorphic = metamorphicChecks(ctx, &res, q, want)
	return res
}

// streamingChecks verifies the sink-based execution path against the
// legacy materialized one: a Collect sink must reproduce the reference
// byte-for-byte, a Limit(k) sink must deliver exactly the first k rows of
// it (the streaming order IS the materialized order — that is the whole
// contract), and a Count sink must agree on the cardinality. Sequential
// and parallel flavors both run, since the parallel path streams through a
// different code path (the morsel frontier or the tournament merge).
func streamingChecks(ctx context.Context, res *Result, b *engine.Bound, q *query.Q, want *rel.Relation) []CheckResult {
	var out []CheckResult
	check := func(name string, f func() error) {
		cr := CheckResult{Check: name, Status: StatusPass}
		if err := f(); err != nil {
			cr.Status = StatusFail
			cr.Detail = err.Error()
			res.fail("%s: %v", name, err)
		}
		out = append(out, cr)
	}
	for _, workers := range []int{1, 3} {
		opts := &engine.Options{Workers: workers, MinParallelRows: 1}
		flavor := map[int]string{1: "seq", 3: "par"}[workers]

		check("stream/collect/"+flavor, func() error {
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

		// k values are deduplicated and never exceed the reference size, so
		// a tiny (or, defensively, empty) reference never demands more rows
		// than exist. CheckInstance rejects empty references earlier.
		var ks []int
		for _, k := range []int{1, (want.Len() + 1) / 2} {
			if k >= 1 && k <= want.Len() && !slices.Contains(ks, k) {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			k := k
			check(fmt.Sprintf("stream/limit%d/%s", k, flavor), func() error {
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

		check("stream/count/"+flavor, func() error {
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
	return out
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
	cr.Millis = float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		if inapplicable(cfg.Algorithm, err) {
			cr.Status = StatusSkip
			cr.Detail = err.Error()
			return cr
		}
		cr.Status = StatusFail
		cr.Detail = err.Error()
		res.fail("%s: %v", cfg.Name, err)
		return cr
	}
	cr.OutRows = out.Len()
	if !rel.Identical(out, want) {
		cr.Status = StatusFail
		cr.Detail = fmt.Sprintf("output differs from naive reference (%d vs %d rows)", out.Len(), want.Len())
		res.fail("%s: %s", cfg.Name, cr.Detail)
		return cr
	}
	cr.Status = StatusPass
	return cr
}

// runRebind exercises the prepared-rebind path: the same shape bound to a
// fresh deep copy of the instance must produce the identical output (the
// shared plan cache must not leak per-binding state).
func runRebind(ctx context.Context, res *Result, p *engine.Prepared, q *query.Q, want *rel.Relation) ConfigResult {
	cr := ConfigResult{Config: "auto/rebind"}
	fresh := make([]*rel.Relation, len(q.Rels))
	for j, r := range q.Rels {
		fresh[j] = r.Clone()
	}
	b, err := p.Bind(fresh)
	if err != nil {
		cr.Status = StatusFail
		cr.Detail = err.Error()
		res.fail("rebind: %v", err)
		return cr
	}
	t0 := time.Now()
	out, _, err := b.Run(ctx, &engine.Options{Workers: 1})
	cr.Millis = float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		cr.Status = StatusFail
		cr.Detail = err.Error()
		res.fail("rebind run: %v", err)
		return cr
	}
	cr.OutRows = out.Len()
	if !rel.Identical(out, want) {
		cr.Status = StatusFail
		cr.Detail = fmt.Sprintf("rebound output differs (%d vs %d rows)", out.Len(), want.Len())
		res.fail("auto/rebind: %s", cr.Detail)
		return cr
	}
	cr.Status = StatusPass
	return cr
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
