package bench

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/fdq/fdqd"
)

// Config is what the command passes in. Seconds is the least time the
// measured pass runs for; it always runs at least the tier's round count,
// and the quick tier runs exactly that.
type Config struct {
	Seed    int64
	Seconds float64
	Quick   bool
}

// tier fixes the round counts. They are constants, never derived from a
// timing, so the exact counters of the traced pass repeat from run to run.
type tier struct {
	minRounds    int // measured rounds at least (p90 then has 11 samples beyond it)
	setupWarm    int // warm-up rounds inside every timed setup; 2 so both reload versions get planned
	extraWarm    int // further warm-up rounds after the last setup, outside setup_s
	setupReps    int // setups per run; setup_s is their median
	tracedRounds int // rounds of the traced pass, each followed by a per-query replay
	calibReps    int // runs of the calibration kernel; the fastest is reported
}

var (
	fullTier  = tier{minRounds: 110, setupWarm: 2, extraWarm: 8, setupReps: 3, tracedRounds: 10, calibReps: 3}
	quickTier = tier{minRounds: 2, setupWarm: 2, extraWarm: 0, setupReps: 1, tracedRounds: 1, calibReps: 1}
)

func (c Config) tier() tier {
	if c.Quick {
		return quickTier
	}
	return fullTier
}

// wireTenant is the one tenant of the wire workload; its governor queues
// (never refuses) under a budget no query of the mix comes near.
const wireTenant = "bench"

var wireGovernor = []fdq.GovernorOption{fdq.WithPolicy(fdq.PolicyQueue), fdq.WithMaxLogBound(48)}

type opKind int

const (
	opCount opKind = iota
	opCollect
	opFirstRow
	numOps
)

var opNames = [numOps]string{"count", "collect", "first_row"}

// world is one set-up workload: instances generated, relations defined,
// references computed, server started, caches warm.
type world struct {
	w     *Workload
	tier  tier
	insts []*instance
	cat   *fdq.Catalog
	sess  *fdq.Session // the warm session; nil in modeCold, where every round makes its own
	cur   []int        // which data version of each instance is currently defined

	srv     *fdqd.Server
	served  chan error
	addr    string
	clients []*fdqc.Client

	rec       *recorder // nil with tracing off
	roundSpan int       // the open round span, parent of the round's op spans

	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error
	cache     fdq.CacheStats // summed over the cold sessions already dropped
}

// setUp builds the world and runs the tier's in-setup warm-up rounds. The
// caller times it: everything in here is setup_s.
func setUp(w *Workload, cfg Config) (wd *world, err error) {
	wd = &world{w: w, tier: cfg.tier(), cat: fdq.NewCatalog()}
	defer func() {
		if err != nil {
			wd.close()
		}
	}()
	workers := 1
	if w.mode == modePar {
		workers = 0 // one per CPU
	}
	for i, src := range w.sources {
		in, err := newInstance(fmt.Sprintf("q%02d", i), src, src.size(cfg.Quick), cfg.Seed, w.mode == modeReload)
		if err != nil {
			return nil, err
		}
		if in.ver[0].ref.rows == 0 {
			return nil, fmt.Errorf("bench: %s has an empty answer: first_row would measure nothing", in.label)
		}
		in.pub.Workers(workers)
		if in.spec != nil {
			in.spec.Workers = 1
		}
		if err := defineAll(wd.cat, in.ver[0].defs); err != nil {
			return nil, err
		}
		wd.insts = append(wd.insts, in)
	}
	wd.cur = make([]int, len(wd.insts))
	switch w.mode {
	case modeWarm, modePar, modeReload:
		wd.sess = fdq.NewSession(wd.cat)
	case modeWire:
		for _, in := range wd.insts {
			if in.spec == nil {
				return nil, fmt.Errorf("bench: %s cannot cross the wire", in.label)
			}
		}
		if err := wd.serve(min(runtime.GOMAXPROCS(0), 2)); err != nil {
			return nil, err
		}
	}
	if w.mode == modePar && runtime.GOMAXPROCS(0) > 1 {
		if err := wd.assertParallel(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < wd.tier.setupWarm; i++ {
		wd.round()
	}
	return wd, wd.firstErr
}

// defineAll creates or replaces the relations in cat.
func defineAll(cat *fdq.Catalog, defs []relDef) error {
	for _, d := range defs {
		if err := cat.Define(d.name, d.cols, d.rows); err != nil {
			return err
		}
	}
	return nil
}

// serve starts fdqd on a loopback port over the world's catalog and dials
// the given number of client connections.
func (wd *world) serve(nclients int) error {
	srv, err := fdqd.New(fdqd.Config{
		Catalog: wd.cat,
		Tenants: map[string][]fdq.GovernorOption{wireTenant: wireGovernor},
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	wd.srv, wd.addr, wd.served = srv, ln.Addr().String(), make(chan error, 1)
	go func() { wd.served <- srv.Serve(ln) }()
	for i := 0; i < nclients; i++ {
		c, err := fdqc.Dial(wd.addr, fdqc.WithTenant(wireTenant))
		if err != nil {
			return err
		}
		wd.clients = append(wd.clients, c)
	}
	return nil
}

// close stops the server and waits for it; safe on a half-built world.
func (wd *world) close() error {
	var errs []error
	for _, c := range wd.clients {
		errs = append(errs, c.Close())
	}
	wd.clients = nil
	if wd.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, wd.srv.Shutdown(ctx), <-wd.served)
		cancel()
		wd.srv = nil
	}
	return errors.Join(errs...)
}

// assertParallel checks that every instance of the parallel workload really
// runs on more than one worker, so the workload measures the scheduler.
func (wd *world) assertParallel() error {
	for _, in := range wd.insts {
		rows, err := wd.sess.Query(context.Background(), in.pub)
		if err != nil {
			return err
		}
		for rows.Next() {
		}
		st, err := rows.Stats(), rows.Err()
		rows.Close()
		if err != nil {
			return err
		}
		if st == nil || st.Workers <= 1 {
			return fmt.Errorf("bench: %s ran on one worker; the parallel workload needs instances over the engine's threshold", in.label)
		}
	}
	return nil
}

// fail counts one failed op.
func (wd *world) fail(in *instance, op opKind, err error) {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	wd.failed++
	if wd.firstErr == nil {
		wd.firstErr = fmt.Errorf("bench: %s %s on %s: %w", wd.w.Name, opNames[op], in.label, err)
	}
}

// surface is where an op runs: an in-process session or a wire client.
type surface struct {
	sess   *fdq.Session
	client *fdqc.Client
}

// runOp runs one public op, checks its answer against the reference, and
// returns the time to the first row (for opFirstRow; zero otherwise).
func (wd *world) runOp(s surface, in *instance, idx int, op opKind) time.Duration {
	ref := &in.ver[wd.cur[idx]].ref
	sp := wd.rec.start(opNames[op], in.label, wd.roundSpan)
	ttfr, err := s.do(in, op, ref)
	wd.rec.end(sp)
	wd.mu.Lock()
	wd.attempted++
	wd.mu.Unlock()
	if err != nil {
		wd.fail(in, op, err)
	}
	return ttfr
}

func (s surface) do(in *instance, op opKind, ref *reference) (ttfr time.Duration, err error) {
	ctx := context.Background()
	switch op {
	case opCount:
		var n int
		if s.client != nil {
			n, err = s.client.Count(ctx, countSpec(in.spec))
		} else {
			n, err = s.sess.Count(ctx, in.pub)
		}
		if err == nil && n != ref.rows {
			err = fmt.Errorf("count %d, reference %d", n, ref.rows)
		}
	case opCollect:
		var rows [][]fdq.Value
		if s.client != nil {
			rows, _, err = s.client.Collect(ctx, in.spec)
		} else {
			rows, err = s.sess.Collect(ctx, in.pub)
		}
		if err == nil {
			err = ref.check(rows)
		}
	case opFirstRow:
		start := time.Now()
		var rows interface {
			Next() bool
			Row() []fdq.Value
			Err() error
			Close() error
		}
		if s.client != nil {
			rows, err = s.client.Query(ctx, in.spec)
		} else {
			rows, err = s.sess.Query(ctx, in.pub)
		}
		if err != nil {
			return 0, err
		}
		var first []fdq.Value
		if rows.Next() {
			first = slices.Clone(rows.Row())
		}
		ttfr = time.Since(start)
		err = rows.Err()
		if cerr := rows.Close(); err == nil {
			err = cerr
		}
		if err == nil && !slices.Equal(first, ref.first) {
			err = fmt.Errorf("first row %v, reference %v", first, ref.first)
		}
	}
	return ttfr, err
}

// check compares a collected answer with the reference: row count, then the
// digest of every value.
func (ref *reference) check(rows [][]fdq.Value) error {
	if len(rows) != ref.rows {
		return fmt.Errorf("collected %d rows, reference %d", len(rows), ref.rows)
	}
	if d := digestRows(rows); d != ref.digest {
		return fmt.Errorf("collected rows digest %016x, reference %016x", d, ref.digest)
	}
	return nil
}

// roundTimes is one measured round.
type roundTimes struct {
	wall     time.Duration
	firstRow time.Duration // summed time to first row over the round's queries
}

// round makes one pass over the query list: count, collect, first_row for
// every query. count goes first so that in modeCold it pays the cache miss.
func (wd *world) round() roundTimes {
	wd.roundSpan = wd.rec.start("round", "", 0)
	defer wd.rec.end(wd.roundSpan)
	start := time.Now()
	var first time.Duration
	if wd.w.mode == modeWire {
		first = wd.wireRound()
	} else {
		s := surface{sess: wd.sess}
		if wd.w.mode == modeCold {
			s.sess = fdq.NewSession(wd.cat)
		}
		for i, in := range wd.insts {
			if wd.w.mode == modeReload {
				wd.reload(i)
			}
			for op := opKind(0); op < numOps; op++ {
				first += wd.runOp(s, in, i, op)
			}
		}
		if wd.w.mode == modeCold {
			wd.cache = addCache(wd.cache, s.sess.CacheStats())
		}
	}
	return roundTimes{wall: time.Since(start), firstRow: first}
}

// reload replaces every relation instance i reads with its other version.
func (wd *world) reload(i int) {
	in := wd.insts[i]
	next := 1 - wd.cur[i]
	sp := wd.rec.start("define", in.label, wd.roundSpan)
	err := defineAll(wd.cat, in.ver[next].defs)
	wd.rec.end(sp)
	if err != nil {
		wd.fail(in, opCount, fmt.Errorf("reload: %w", err))
		return
	}
	wd.cur[i] = next
}

// wireRound spreads the round's ops over the client connections: each
// connection is a closed loop that takes the next op when its last returns.
func (wd *world) wireRound() time.Duration {
	var next atomic.Int64
	var first atomic.Int64
	total := int64(len(wd.insts)) * int64(numOps)
	var wg sync.WaitGroup
	for _, c := range wd.clients {
		wg.Add(1)
		go func(c *fdqc.Client) {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= total {
					return
				}
				i := int(k) / int(numOps)
				first.Add(int64(wd.runOp(surface{client: c}, wd.insts[i], i, opKind(k%int64(numOps)))))
			}
		}(c)
	}
	wg.Wait()
	return time.Duration(first.Load())
}

func addCache(a, b fdq.CacheStats) fdq.CacheStats {
	return fdq.CacheStats{Hits: a.Hits + b.Hits, Misses: a.Misses + b.Misses, Evictions: a.Evictions + b.Evictions}
}

// cacheStats is the prepared-shape cache behaviour of every session the
// world's rounds have used.
func (wd *world) cacheStats() fdq.CacheStats {
	if wd.sess == nil {
		return wd.cache
	}
	return addCache(wd.cache, wd.sess.CacheStats())
}

// stated sizes of the workload: total input rows, and result rows one round
// collects (averaged over the data versions a reloading workload alternates).
func (wd *world) inputRows() (n int) {
	for _, in := range wd.insts {
		n += in.inputRows()
	}
	return n
}

func (wd *world) rowsPerRound() float64 {
	var n float64
	for _, in := range wd.insts {
		if in.ver[1] != nil {
			n += float64(in.ver[0].ref.rows+in.ver[1].ref.rows) / 2
		} else {
			n += float64(in.ver[0].ref.rows)
		}
	}
	return n
}

// Run is the result of one pass over one workload.
type Run struct {
	Workload     string             `json:"workload"`
	Traced       bool               `json:"traced"`
	Attempted    int                `json:"ops_attempted"`
	Failed       int                `json:"ops_failed"`
	FirstError   string             `json:"first_error,omitempty"`
	Rounds       int                `json:"rounds"`
	RowsPerRound float64            `json:"rows_per_round"`
	InputRows    int                `json:"input_rows"`
	Queries      []string           `json:"queries"`
	Metrics      map[string]float64 `json:"metrics"`
	CalibFactor  float64            `json:"calib_factor,omitempty"` // untraced pass: calibrated = raw wall clock × this
	Raw          map[string]float64 `json:"raw_wall_clock,omitempty"`
	Spans        []Span             `json:"-"`
}

func (wd *world) newRun(traced bool) *Run {
	r := &Run{Workload: wd.w.Name, Traced: traced, RowsPerRound: wd.rowsPerRound(),
		InputRows: wd.inputRows(), Metrics: map[string]float64{}}
	for _, in := range wd.insts {
		r.Queries = append(r.Queries, in.label)
	}
	return r
}

func (wd *world) finish(r *Run) {
	r.Attempted, r.Failed = wd.attempted, wd.failed
	if wd.firstErr != nil {
		r.FirstError = wd.firstErr.Error()
	}
}

const mib = 1 << 20

// Measure is the untraced pass: setup (several times, median reported),
// warm-up, then closed-loop rounds for at least cfg.Seconds. Its times are
// calibrated (see calib.go); the wall-clock values are kept in Raw.
func Measure(w *Workload, cfg Config) (*Run, error) {
	t := cfg.tier()
	var wd *world
	var setups []float64
	for i := 0; i < t.setupReps; i++ {
		if wd != nil {
			if err := wd.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every setup starts from a collected heap
		start := time.Now()
		var err error
		if wd, err = setUp(w, cfg); err != nil {
			return nil, fmt.Errorf("bench: %s: setup: %w", w.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer wd.close()
	for i := 0; i < t.extraWarm; i++ {
		wd.round()
	}

	var rounds []roundTimes
	var m0, m1 runtime.MemStats
	pace := newPacer()
	runtime.GC()
	before := wd.attempted
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(rounds) < t.minRounds || (!cfg.Quick && time.Since(start).Seconds() < cfg.Seconds) {
		if len(rounds)%paceEvery == 0 {
			pace.slice()
		}
		rounds = append(rounds, wd.round())
	}
	runtime.ReadMemStats(&m1)

	r := wd.newRun(false)
	r.Rounds = len(rounds)
	walls, firsts := roundMillis(rounds)
	var busy float64 // seconds inside rounds; the pace kernel's slices are not the workload's time
	for _, w := range walls {
		busy += w / 1e3
	}
	n := float64(len(rounds))
	f := pace.factor()
	r.CalibFactor = f
	r.Raw = map[string]float64{
		"setup_s":          median(setups),
		"round_p50_ms":     median(walls),
		"round_p90_ms":     percentile(walls, 0.9),
		"queries_per_s":    float64(wd.attempted-before) / busy,
		"first_row_p50_ms": median(firsts),
	}
	for name, v := range r.Raw {
		r.Metrics[name] = v * f
	}
	r.Metrics["queries_per_s"] = r.Raw["queries_per_s"] / f
	r.Metrics["alloc_mb_per_round"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib / n
	r.Metrics["allocs_per_round"] = float64(m1.Mallocs-m0.Mallocs) / n
	wd.finish(r)
	return r, wd.close()
}

func roundMillis(rounds []roundTimes) (walls, firsts []float64) {
	for _, rt := range rounds {
		walls = append(walls, ms(rt.wall))
		firsts = append(firsts, ms(rt.firstRow))
	}
	return walls, firsts
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
