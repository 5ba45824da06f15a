package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/bounds"
	"repro/internal/chainalg"
	"repro/internal/csma"
	"repro/internal/engine"
	"repro/internal/lattice"
	"repro/internal/query"
	"repro/internal/rel"
	"repro/internal/smalg"
	"repro/internal/wcoj"
)

// microReps is how often a microsecond-scale call is repeated inside one
// span; the metric is the mean of the repetitions.
const microReps = 16

// batchRows is the server's default rows per batch frame.
const batchRows = 256

// rttSource is the tiny instance whose warm count over loopback is the
// round-trip probe; it is defined in every traced world's catalog.
var rttSource = source{Family: "skew/zipf-triangle", Size: 64, Quick: 64}

// layers holds what the replay needs beside the world: a warm session on a
// private copy of the catalog for the Define and re-bind probes (so the
// probes never invalidate what the measured rounds run on), a warm session
// for the in-process ops, and a wire client.
type layers struct {
	wd      *world
	rec     *recorder
	sess    *fdq.Session
	scratch *fdq.Catalog
	rebound *fdq.Session
	client  *fdqc.Client
	rtt     *instance
	procs   int
}

// acc sums one replay round's measurements by metric name. Names starting
// with "_" are intermediate sums that ratios are derived from.
type acc map[string]float64

func newLayers(wd *world, seed int64) (*layers, error) {
	l := &layers{wd: wd, rec: wd.rec, sess: wd.sess, scratch: fdq.NewCatalog(), procs: runtime.GOMAXPROCS(0)}
	if wd.srv == nil {
		if err := wd.serve(1); err != nil {
			return nil, err
		}
	}
	l.client = wd.clients[0]
	var err error
	if l.rtt, err = newInstance("rtt", rttSource, rttSource.Size, seed, false); err != nil {
		return nil, err
	}
	if err := defineAll(wd.cat, l.rtt.ver[0].defs); err != nil {
		return nil, err
	}
	l.rtt.spec.Workers = 1
	if l.sess == nil {
		l.sess = fdq.NewSession(wd.cat)
	}
	l.rebound = fdq.NewSession(l.scratch)
	ctx := context.Background()
	for _, in := range wd.insts {
		for _, v := range in.ver {
			if v == nil {
				continue
			}
			// Both versions go through the private session once, so its
			// per-size plan memo is as warm as the measured session's.
			if err := defineAll(l.scratch, v.defs); err != nil {
				return nil, err
			}
			if _, err := l.rebound.Count(ctx, in.pub); err != nil {
				return nil, err
			}
		}
		if _, err := l.sess.Count(ctx, in.pub); err != nil {
			return nil, err
		}
	}
	if _, err := l.client.Count(ctx, countSpec(l.rtt.spec)); err != nil {
		return nil, err
	}
	return l, nil
}

func countSpec(s *fdqc.QuerySpec) *fdqc.QuerySpec {
	c := *s
	c.Count = true
	return &c
}

// replayRound replays every query of the workload once, layer by layer, and
// returns the round's sums.
func (l *layers) replayRound() (acc, error) {
	a := acc{}
	for i, in := range l.wd.insts {
		if err := l.replay(a, in, in.ver[l.wd.cur[i]]); err != nil {
			return nil, fmt.Errorf("bench: %s: replay %s: %w", l.wd.w.Name, in.label, err)
		}
	}
	root := l.rec.start("probe", "", 0)
	defer l.rec.end(root)
	a["fdqc.dial_ms"] = ms(l.rec.timed("dial", "", root, func() {
		if c, err := fdqc.Dial(l.wd.addr, fdqc.WithTenant(wireTenant)); err == nil {
			c.Close()
		}
	}))
	spec := countSpec(l.rtt.spec)
	var err error
	a["fdqc.rtt_us"] = us(l.rec.timed("rtt", l.rtt.label, root, func() {
		for i := 0; i < microReps && err == nil; i++ {
			_, err = l.client.Count(context.Background(), spec)
		}
	})) / microReps
	return a, err
}

// replay runs one query through the layers the public ops go through, each
// call timed on its own. The replay span's children are the blocking steps
// of a cold collect (gen, validate, prepare, plan, exec_cold, exec,
// materialize) and of shipping its result (encode, decode); the probe span
// holds every other layer call.
func (l *layers) replay(a acc, in *instance, v *version) error {
	ctx := context.Background()
	rec, label := l.rec, in.label
	seq := &engine.Options{Workers: 1}
	var err error
	step := func(parent int, name string, fn func()) time.Duration {
		if err != nil {
			return 0
		}
		return rec.timed(name, label, parent, fn)
	}

	// --- the blocking steps of one cold query -------------------------
	root := rec.start("replay", label, 0)
	var q *query.Q
	a["gen.build_ms"] += ms(step(root, "gen", func() { q, err = generate(in.src.Family, v.size, v.seed) }))
	validate := step(root, "validate", func() { err = q.Validate() })
	var prep *engine.Prepared
	prepare := step(root, "prepare", func() { prep, err = engine.Prepare(q) })
	var b *engine.Bound
	var pl *engine.Plan
	plan := step(root, "plan", func() {
		if b, err = prep.Bind(nil); err == nil {
			pl = b.Plan()
		}
	})
	runCount := func() {
		var st *engine.Stats
		if st, err = b.RunInto(ctx, seq, &rel.CountSink{}); err == nil && st.OutSize != v.ref.rows {
			err = fmt.Errorf("engine counted %d rows, reference %d", st.OutSize, v.ref.rows)
		}
	}
	execCold := step(root, "exec_cold", runCount)
	exec := step(root, "exec", runCount)
	var out *rel.Relation
	collect := step(root, "materialize", func() { out, _, err = b.Run(ctx, seq) })
	if err != nil {
		rec.end(root)
		return err
	}
	width := len(q.Names)
	flat := make([]fdq.Value, 0, out.Len()*width)
	for i := 0; i < out.Len(); i++ {
		flat = append(flat, out.Row(i)...)
	}
	var payloads [][]byte
	a["fdqc.batch_encode_ms"] += ms(step(root, "encode", func() {
		for lo := 0; lo < len(flat); lo += batchRows * width {
			payloads = append(payloads, fdqc.AppendBatch(nil, flat[lo:min(lo+batchRows*width, len(flat))], width))
		}
	}))
	a["fdqc.batch_decode_ms"] += ms(step(root, "decode", func() {
		n := 0
		for _, p := range payloads {
			var vals []fdq.Value
			if vals, err = fdqc.DecodeBatch(p, width); err != nil {
				return
			}
			n += len(vals)
		}
		if n != len(flat) {
			err = fmt.Errorf("decoded %d values, encoded %d", n, len(flat))
		}
	}))
	rec.end(root)
	a["query.validate_ms"] += ms(validate)
	a["engine.prepare_ms"] += ms(prepare)
	a["engine.plan_ms"] += ms(plan)
	a["engine.run_count_ms"] += ms(exec)
	a["engine.run_collect_ms"] += ms(collect)
	a["engine.cold_index_ms"] += ms(max(execCold-exec, 0))
	a["engine.planned_"+string(pl.Algorithm)]++
	if slack := pl.LogBound - math.Log2(float64(out.Len())); !math.IsNaN(slack) && !math.IsInf(slack, 0) {
		a["engine.bound_slack_log2_max"] = max(a["engine.bound_slack_log2_max"], slack)
		a["_slack_sum"] += slack
		a["_slack_n"]++
	}
	for _, p := range payloads {
		a["_wire_bytes"] += float64(len(p))
	}
	a["_wire_rows"] += float64(out.Len())

	// --- every other layer call ---------------------------------------
	probe := rec.start("probe", label, 0)
	defer rec.end(probe)
	var buf bytes.Buffer
	a["fdqc.frame_rw_ms"] += ms(step(probe, "frame_rw", func() {
		for _, p := range payloads {
			if err = fdqc.WriteFrame(&buf, fdqc.FrameBatch, p); err != nil {
				return
			}
		}
		for range payloads {
			if _, _, err = fdqc.ReadFrame(&buf); err != nil {
				return
			}
		}
	}))

	// Planning, each call on a query whose plan memo is cold. The bounds
	// are taken only where the planner's decision table consults them.
	var qb *query.Q
	if qb, err = generate(in.src.Family, v.size, v.seed); err != nil {
		return err
	}
	var lat *lattice.Lattice
	a["lattice.build_ms"] += ms(step(probe, "lattice", func() { lat = lattice.New(qb.K, qb.FDs.Closure) }))
	a["lattice.elems"] += float64(lat.Size())
	qb.Lattice()
	a["bounds.agm_ms"] += ms(step(probe, "agm", func() { bounds.AGM(qb) }))
	var llp *bounds.LLPResult
	var proof *smalg.Proof
	if len(qb.FDs.FDs) > 0 || len(qb.DegreeBounds) > 0 {
		var cb *bounds.ChainResult
		a["bounds.chain_ms"] += ms(step(probe, "chain", func() { cb = bounds.BestChainBound(qb, 64) }))
		a["bounds.llp_ms"] += ms(step(probe, "llp", func() { llp = bounds.LLP(qb) }))
		chain := math.Inf(1)
		if cb.Finite {
			chain, _ = cb.LogBound.Float64()
		}
		if logLLP, _ := llp.LogBound.Float64(); logLLP < chain-1e-9 {
			a["smalg.find_proof_ms"] += ms(step(probe, "find_proof", func() { proof = smalg.FindProofAuto(qb, llp) }))
		}
		a["bounds.cllp_ms"] += ms(step(probe, "cllp", func() { bounds.CLLPFromQuery(qb) }))
	}

	// The planned executor called directly, on the warm relations of q.
	sink := &rel.CountSink{}
	switch pl.Algorithm {
	case engine.AlgChain:
		a["chainalg.exec_ms"] += ms(step(probe, "chainalg", func() { _, err = chainalg.RunInto(ctx, q, pl.Chain, sink) }))
	case engine.AlgSM:
		if proof == nil {
			return fmt.Errorf("planner chose SM but the proof search found none")
		}
		a["smalg.exec_ms"] += ms(step(probe, "smalg", func() { _, err = smalg.RunInto(ctx, q, llp, proof, sink) }))
	case engine.AlgCSMA:
		a["csma.exec_ms"] += ms(step(probe, "csma", func() { _, err = csma.RunInto(ctx, q, nil, sink) }))
	case engine.AlgGenericJoin:
		a["wcoj.generic_exec_ms"] += ms(step(probe, "wcoj", func() { _, err = wcoj.GenericJoinInto(ctx, q, wcoj.DefaultOrder(q), sink) }))
	}
	if err == nil && pl.Algorithm != engine.AlgBinary && sink.N != v.ref.rows {
		err = fmt.Errorf("%s counted %d rows, reference %d", pl.Algorithm, sink.N, v.ref.rows)
	}

	// Sequential against parallel on real cores, and the modeled makespan.
	if l.procs > 1 && err == nil {
		par := &engine.Options{Workers: l.procs}
		var st *engine.Stats
		if st, err = b.RunInto(ctx, par, &rel.CountSink{}); err == nil && st.Workers > 1 {
			a["engine.seq_ms"] += ms(step(probe, "seq", runCount))
			a["engine.par_ms"] += ms(step(probe, "par", func() { st, err = b.RunInto(ctx, par, &rel.CountSink{}) }))
			if err == nil {
				a["engine.morsels"] += float64(st.Morsels)
				a["engine.steals"] += float64(st.Steals)
				a["engine.adapt_switches"] += float64(st.AdaptSwitches)
			}
			step(probe, "profile", func() {
				// An instance the worker clamp degrades to sequential has
				// no splits to profile; it adds nothing to the model.
				if prof, perr := b.ProfileSplits(ctx, par, false); perr == nil {
					a["engine.makespan_model_ms"] += ms(prof.Makespan(l.procs, true))
				}
			})
		}
	}

	// rel: what Define and a first execution pay per relation.
	for _, r := range q.Rels {
		shuffled := rel.New(r.Name, r.Attrs...)
		shuffled.Grow(r.Len())
		for _, i := range rand.New(rand.NewSource(v.seed)).Perm(r.Len()) {
			shuffled.AddTuple(r.Row(i))
		}
		a["rel.sort_dedup_ms"] += ms(step(probe, "sort_dedup", shuffled.SortDedup))
		clone := r.Clone()
		key := slices.Clone(r.Attrs)
		slices.Reverse(key)
		var ix *rel.Index
		a["rel.index_build_ms"] += ms(step(probe, "index_build", func() { ix = clone.IndexOn(key...) }))
		a["rel.trie_build_ms"] += ms(step(probe, "trie_build", func() { ix.Trie() }))
	}

	// fdq: the session tiers, cold then warm, then Define and re-bind.
	a["fdq.resolve_miss_ms"] += ms(step(probe, "resolve_miss", func() { _, err = fdq.NewSession(l.wd.cat).Explain(in.pub) }))
	coldCount := step(probe, "cold_count", func() { err = checkCount(v)(fdq.NewSession(l.wd.cat).Count(ctx, in.pub)) })
	a["engine.cold_count_ms"] += ms(coldCount)
	a["_cold_children_ms"] += ms(validate + prepare + plan + execCold)
	a["fdq.resolve_hit_us"] += us(step(probe, "resolve_hit", func() {
		for i := 0; i < microReps && err == nil; i++ {
			_, err = l.sess.Explain(in.pub)
		}
	})) / microReps
	a["fdq.count_ms"] += ms(step(probe, "fdq_count", func() { err = checkCount(v)(l.sess.Count(ctx, in.pub)) }))
	a["fdq.collect_ms"] += ms(step(probe, "fdq_collect", func() {
		var rows [][]fdq.Value
		if rows, err = l.sess.Collect(ctx, in.pub); err == nil {
			err = v.ref.check(rows)
		}
	}))
	stream := step(probe, "fdq_stream", func() {
		var rows *fdq.Rows
		if rows, err = l.sess.Query(ctx, in.pub); err != nil {
			return
		}
		n := 0
		for rows.Next() {
			n++
		}
		err = checkCount(v)(n, rows.Err())
		rows.Close()
	})
	a["fdq.stream_ms"] += ms(stream)
	a["fdq.first_row_ms"] += ms(step(probe, "fdq_first_row", func() { _, err = surface{sess: l.sess}.do(in, opFirstRow, &v.ref) }))
	a["fdq.catalog_define_ms"] += ms(step(probe, "define", func() { err = defineAll(l.scratch, v.defs) }))
	a["fdq.rebind_ms"] += ms(step(probe, "rebind", func() { _, err = l.rebound.Explain(in.pub) }))

	// fdqc / fdqd: the same query over loopback, where it can cross.
	if in.spec != nil && err == nil {
		l.wire(a, probe, in, v, stream)
	}
	return err
}

// checkCount adapts a (count, error) result to an error against the
// reference row count.
func checkCount(v *version) func(int, error) error {
	return func(n int, err error) error {
		if err == nil && n != v.ref.rows {
			err = fmt.Errorf("counted %d rows, reference %d", n, v.ref.rows)
		}
		return err
	}
}

// wire runs the query's wire probes. A failure here is a failed op of the
// workload, not an error of the harness: it is counted and reported.
func (l *layers) wire(a acc, probe int, in *instance, v *version, stream time.Duration) {
	ctx := context.Background()
	rec, label := l.rec, in.label
	var err error
	var raw []byte
	a["fdqc.spec_encode_us"] += us(rec.timed("spec_encode", label, probe, func() {
		for i := 0; i < microReps && err == nil; i++ {
			raw, err = json.Marshal(in.spec)
		}
	})) / microReps
	a["fdqc.spec_decode_us"] += us(rec.timed("spec_decode", label, probe, func() {
		for i := 0; i < microReps && err == nil; i++ {
			var s fdqc.QuerySpec
			if err = json.Unmarshal(raw, &s); err == nil {
				_, err = s.Query()
			}
		}
	})) / microReps

	// The server's counters must move by exactly what the client asked for
	// and received: two admissions, and the collected rows.
	m := l.wd.srv.Metrics()
	rows0, adm0 := m.RowsStreamed.Load(), m.Admitted.Load()
	s := surface{client: l.client}
	a["fdqc.count_ms"] += ms(rec.timed("wire_count", label, probe, func() {
		if err == nil {
			_, err = s.do(in, opCount, &v.ref)
		}
	}))
	var st *fdq.RunStats
	collect := rec.timed("wire_collect", label, probe, func() {
		var rows [][]fdq.Value
		if err != nil {
			return
		}
		if rows, st, err = l.client.Collect(ctx, in.spec); err == nil {
			err = v.ref.check(rows)
		}
	})
	a["fdqc.collect_ms"] += ms(collect)
	a["_wire_collect_ms"] += ms(collect)
	a["_stream_portable_ms"] += ms(stream)
	if st != nil {
		a["fdq.queue_wait_ms"] += ms(st.QueueWait)
	}
	rows, adm := m.RowsStreamed.Load()-rows0, m.Admitted.Load()-adm0
	a["fdqd.rows_streamed"] += float64(rows)
	a["fdqd.admitted"] += float64(adm)
	if err == nil && (rows != int64(v.ref.rows) || adm != 2) {
		err = fmt.Errorf("server streamed %d rows over %d admissions; the client received %d rows from 2 queries", rows, adm, v.ref.rows)
	}
	a["fdqc.first_row_ms"] += ms(rec.timed("wire_first_row", label, probe, func() {
		if err == nil {
			_, err = s.do(in, opFirstRow, &v.ref)
		}
	}))
	l.wd.mu.Lock()
	l.wd.attempted++
	l.wd.mu.Unlock()
	if err != nil {
		l.wd.fail(in, opCollect, fmt.Errorf("wire probe: %w", err))
	}
}

// Trace is the traced pass: the same rounds with a span around every public
// op, each round followed by a replay of every query layer by layer. It
// reports the per-layer metrics as medians over the rounds and returns the
// spans.
func Trace(w *Workload, cfg Config) (*Run, error) {
	t := cfg.tier()
	wd, err := setUp(w, cfg)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: setup: %w", w.Name, err)
	}
	defer wd.close()
	for i := 0; i < t.extraWarm; i++ {
		wd.round()
	}
	calib := calibrate(t.calibReps)

	rec := newRecorder(w.Name)
	wd.rec = rec
	l, err := newLayers(wd, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: layers: %w", w.Name, err)
	}

	// Every iteration runs one round with tracing off, the same round with
	// tracing on, then the replay: both rounds meet the same heap, so their
	// difference is the tracing and not the replay's garbage.
	var untraced, traced []roundTimes
	var rounds []acc
	var gcCycles, gcPause, heapMax float64
	cache0 := l.cacheStats()
	var m0, m1 runtime.MemStats
	for i := 0; i < t.tracedRounds; i++ {
		wd.rec = nil
		untraced = append(untraced, wd.round())
		wd.rec = rec
		runtime.ReadMemStats(&m0)
		traced = append(traced, wd.round())
		runtime.ReadMemStats(&m1)
		gcCycles += float64(m1.NumGC - m0.NumGC)
		gcPause += float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
		heapMax = max(heapMax, float64(m0.HeapInuse)/mib, float64(m1.HeapInuse)/mib)
		a, err := l.replayRound()
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, a)
	}
	cache1 := l.cacheStats()

	r := wd.newRun(true)
	r.Rounds = len(traced)
	r.Spans = rec.spans
	m := r.Metrics
	sum := func(key string) float64 { // a round's sum over the queries, median over the rounds
		var xs []float64
		for _, a := range rounds {
			xs = append(xs, a[key])
		}
		return median(xs)
	}
	for _, decl := range PerLayer {
		m[decl.Name] = sum(decl.Name)
	}
	m["engine.bound_slack_log2_mean"] = ratio(sum("_slack_sum"), sum("_slack_n"))
	m["engine.plan_share"] = ratio(m["engine.prepare_ms"]+m["engine.plan_ms"], m["engine.cold_count_ms"])
	m["engine.par_speedup"] = ratio(m["engine.seq_ms"], m["engine.par_ms"])
	m["engine.makespan_model_error"] = ratio(m["engine.par_ms"], m["engine.makespan_model_ms"])
	m["fdqc.bytes_per_row"] = ratio(sum("_wire_bytes"), sum("_wire_rows"))
	m["fdqc.wire_overhead_share"] = ratio(sum("_wire_collect_ms")-sum("_stream_portable_ms"), sum("_wire_collect_ms"))
	m["trace.unaccounted_share"] = ratio(m["engine.cold_count_ms"]-sum("_cold_children_ms"), m["engine.cold_count_ms"])
	uw, _ := roundMillis(untraced)
	tw, _ := roundMillis(traced)
	m["trace.overhead_share"] = ratio(median(tw)-median(uw), median(uw))
	m["calib.sort_hash_ms"] = calib
	m["go.gc_cycles"] = gcCycles
	m["go.gc_pause_ms"] = gcPause
	m["go.heap_inuse_max_mb"] = heapMax
	m["fdq.cache_hits"] = float64(cache1.Hits - cache0.Hits)
	m["fdq.cache_misses"] = float64(cache1.Misses - cache0.Misses)
	m["fdq.cache_evictions"] = float64(cache1.Evictions - cache0.Evictions)
	wd.finish(r)
	return r, wd.close()
}

// ratio is a/b, and 0 where the workload gives the denominator nothing to
// measure (no parallel run at one core, no wire-portable query).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cacheStats sums the prepared-shape cache counters of every session the
// traced pass runs on: the world's, and the replay's own where the world
// has no warm in-process session (plan-cold, wire-loopback).
func (l *layers) cacheStats() fdq.CacheStats {
	cs := l.wd.cacheStats()
	if l.sess != l.wd.sess {
		cs = addCache(cs, l.sess.CacheStats())
	}
	return cs
}
