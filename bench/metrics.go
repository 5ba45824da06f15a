package bench

import (
	"fmt"
	"math"
	"slices"
)

// Metric declares one reported number. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics carry none. Moves says which end-to-end
// metric on which workload a per-layer metric is expected to move.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Moves  string
}

// EndToEnd is what a user of the system sees, measured with tracing off.
// Times are calibrated against the pace kernel (calib.go). The bounds are
// what this box can resolve, not what one would like: over two sweeps of ten
// runs at ten seeds the spread (quartile distance over median) reached 11 %
// on round_p50_ms, 9 % on queries_per_s, round_p90_ms and first_row_p50_ms,
// 19 % on setup_s, 2.7 % on alloc_mb_per_round (result sizes differ between
// seeds on the random families) and 1 % on allocs_per_round, and the medians
// of the two sweeps differed by up to 7 % (p50) and 13 % (p90). Each bound is
// about three times its spread, up to the contract's cap of 0.25.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "round_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "round_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "first_row_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_round", Unit: "MB", Better: "lower", Bound: 0.08},
	{Name: "allocs_per_round", Unit: "count", Better: "lower", Bound: 0.05},
}

// PerLayer is measured in the traced pass, each around the named public
// call of the layer's package.
var PerLayer = []Metric{
	{Name: "fdq.resolve_hit_us", Unit: "us", Better: "lower", Moves: "queries_per_s@wire-loopback; floor of round_p50_ms@wcoj-warm"},
	{Name: "fdq.resolve_miss_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "fdq.rebind_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn"},
	{Name: "fdq.catalog_define_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn; setup_s everywhere"},
	{Name: "fdq.collect_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm,wcoj-warm"},
	{Name: "fdq.count_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm,wcoj-warm"},
	{Name: "fdq.stream_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wire-loopback (server side of every streamed result)"},
	{Name: "fdq.first_row_ms", Unit: "ms", Better: "lower", Moves: "first_row_p50_ms@fd-warm,wcoj-warm"},
	{Name: "fdq.cache_hits", Unit: "count", Better: "higher", Moves: "none: explains plan-cold against the warm workloads"},
	{Name: "fdq.cache_misses", Unit: "count", Better: "lower", Moves: "none: must be 0 on the warm workloads"},
	{Name: "fdq.cache_evictions", Unit: "count", Better: "lower", Moves: "none: must be 0, every list fits the cache"},
	{Name: "fdq.queue_wait_ms", Unit: "ms", Better: "lower", Moves: "round_p90_ms@wire-loopback"},

	{Name: "query.validate_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold,reload-churn"},

	{Name: "lattice.build_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "lattice.elems", Unit: "count", Better: "lower", Moves: "none: size of the closed-set lattices built"},
	{Name: "bounds.agm_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "bounds.chain_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "bounds.llp_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "bounds.cllp_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "smalg.find_proof_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},

	{Name: "engine.prepare_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "engine.plan_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "engine.cold_count_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@plan-cold (the cold Session.Count that plan_share divides by)"},
	{Name: "engine.plan_share", Unit: "ratio", Better: "lower", Moves: "round_p50_ms@plan-cold"},
	{Name: "engine.run_count_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm,wcoj-warm"},
	{Name: "engine.run_collect_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm,wcoj-warm"},
	{Name: "engine.cold_index_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn"},
	{Name: "engine.seq_ms", Unit: "ms", Better: "lower", Moves: "none: the base of par_speedup"},
	{Name: "engine.par_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@par-skew"},
	{Name: "engine.par_speedup", Unit: "ratio", Better: "higher", Moves: "round_p50_ms@par-skew"},
	{Name: "engine.morsels", Unit: "count", Better: "lower", Moves: "round_p50_ms@par-skew"},
	{Name: "engine.steals", Unit: "count", Better: "lower", Moves: "round_p90_ms@par-skew"},
	{Name: "engine.adapt_switches", Unit: "count", Better: "lower", Moves: "round_p50_ms@par-skew"},
	{Name: "engine.makespan_model_ms", Unit: "ms", Better: "lower", Moves: "none: the modeled wall clock par_ms is read against"},
	{Name: "engine.makespan_model_error", Unit: "ratio", Better: "lower", Moves: "none: par_ms / model, how far real cores and the model disagree"},
	{Name: "engine.planned_chain", Unit: "count", Better: "higher", Moves: "none: guard"},
	{Name: "engine.planned_sm", Unit: "count", Better: "higher", Moves: "none: guard"},
	{Name: "engine.planned_csma", Unit: "count", Better: "higher", Moves: "none: guard"},
	{Name: "engine.planned_generic", Unit: "count", Better: "higher", Moves: "none: guard"},
	{Name: "engine.planned_binary", Unit: "count", Better: "lower", Moves: "none: guard, must be 0 (no tiny-input short circuit)"},
	{Name: "engine.bound_slack_log2_max", Unit: "log2", Better: "lower", Moves: "none: guard"},
	{Name: "engine.bound_slack_log2_mean", Unit: "log2", Better: "lower", Moves: "none: guard"},

	{Name: "chainalg.exec_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm"},
	{Name: "smalg.exec_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm"},
	{Name: "csma.exec_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@fd-warm"},
	{Name: "wcoj.generic_exec_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wcoj-warm,par-skew"},

	{Name: "rel.sort_dedup_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn; setup_s"},
	{Name: "rel.index_build_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn; setup_s"},
	{Name: "rel.trie_build_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@reload-churn; setup_s"},

	{Name: "fdqc.spec_encode_us", Unit: "us", Better: "lower", Moves: "queries_per_s@wire-loopback"},
	{Name: "fdqc.spec_decode_us", Unit: "us", Better: "lower", Moves: "queries_per_s@wire-loopback"},
	{Name: "fdqc.batch_encode_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqc.batch_decode_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqc.bytes_per_row", Unit: "B", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqc.frame_rw_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqc.dial_ms", Unit: "ms", Better: "lower", Moves: "setup_s@wire-loopback"},
	{Name: "fdqc.rtt_us", Unit: "us", Better: "lower", Moves: "queries_per_s@wire-loopback"},
	{Name: "fdqc.collect_ms", Unit: "ms", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqc.count_ms", Unit: "ms", Better: "lower", Moves: "queries_per_s@wire-loopback"},
	{Name: "fdqc.first_row_ms", Unit: "ms", Better: "lower", Moves: "first_row_p50_ms@wire-loopback"},
	{Name: "fdqc.wire_overhead_share", Unit: "ratio", Better: "lower", Moves: "round_p50_ms@wire-loopback"},
	{Name: "fdqd.rows_streamed", Unit: "count", Better: "higher", Moves: "none: reconciled exactly against the rows the clients received"},
	{Name: "fdqd.admitted", Unit: "count", Better: "higher", Moves: "none: reconciled exactly against the queries the clients sent"},

	{Name: "calib.sort_hash_ms", Unit: "ms", Better: "lower", Moves: "none: normalises snapshots from different boxes"},
	{Name: "gen.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Moves: "round_p90_ms everywhere"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "round_p90_ms everywhere"},
	{Name: "go.heap_inuse_max_mb", Unit: "MB", Better: "lower", Moves: "none: memory footprint at round boundaries"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower", Moves: "none: traced against untraced round median"},
	{Name: "trace.unaccounted_share", Unit: "ratio", Better: "lower", Moves: "none: cold end-to-end op not covered by the replayed layer calls"},
}

// ExactRepeat lists the per-layer metrics that are counts of the workload,
// not timings: at a fixed seed they must be identical across runs, and a
// differing value means the workload changed.
var ExactRepeat = []string{
	"engine.planned_chain", "engine.planned_sm", "engine.planned_csma",
	"engine.planned_generic", "engine.planned_binary", "engine.bound_slack_log2_max",
	"fdq.cache_hits", "fdq.cache_misses", "fdq.cache_evictions",
	"fdqc.bytes_per_row", "fdqd.rows_streamed", "lattice.elems",
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values renders measurements in declaration order, rejecting a metric the
// run did not produce: a missing number must not read as zero.
func values(decl []Metric, got map[string]float64) (map[string]Value, error) {
	out := make(map[string]Value, len(decl))
	for _, m := range decl {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: metric %s was not measured", m.Name)
		}
		out[m.Name] = Value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }
