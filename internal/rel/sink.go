package rel

import (
	"runtime"
	"slices"

	"repro/internal/faultinject"
)

// Sink receives output rows during query execution, replacing the old
// materialize-then-return contract: executors emit every result row into a
// Sink the moment the row is final, so LIMIT-k, COUNT-only, and cancelled
// consumers stop the producer as soon as the answer is determined.
//
// The streaming contract every producer in this repository honors:
//
//   - Rows arrive in the final output order: attributes in ascending
//     variable order, rows lexicographically sorted, duplicate-free. A
//     producer that cannot enumerate in that order natively buffers,
//     sorts, and then streams — so the pushed sequence is always exactly
//     the legacy materialized relation, row by row.
//   - The Tuple passed to Push is only valid for the duration of the call
//     (it may alias the producer's scratch or flat storage); sinks that
//     retain a row must copy it.
//   - Push returns false to stop the producer. A stopped producer abandons
//     its remaining work and returns without error: stopping is a consumer
//     decision, not a failure.
//   - Push is all a producer may rely on (RunSink is an optional extra): a
//     sink that buffers (BlockSink) is flushed by whoever called RunInto,
//     once the run has returned.
//   - One pusher at a time. Sequential executions push from the calling
//     goroutine; the parallel scheduler pushes from possibly different
//     goroutines in succession, each hand-over ordered by the scheduler's
//     mutex (a happens-before edge), so Sink implementations need no
//     internal locking unless they are shared across executions — but they
//     must not rely on goroutine identity.
type Sink interface {
	Push(t Tuple) bool
}

// RunSink is an optional, internal extension of Sink for the sinks that
// gain from taking consecutive rows at once: PushRun(prefix, last) means
// exactly len(last) Pushes of prefix followed by each value of last in turn
// (last is ascending, both slices are valid for the call only), and a false
// return stops the producer like Push's. A producer that finds its next rows
// in that form — generic join's last trie level under one path — offers the
// run to a sink that implements RunSink and pushes row by row otherwise.
//
// CountSink and CollectSink implement it, and nothing else may: a sink that
// has to see each row — LimitSink, BlockSink, the engine's gauge and morsel
// sinks, fdq's budget sink — gets Push per row simply by not having the
// method, so limits, row and memory budgets and first-row latency are
// decided at the same row as without runs.
type RunSink interface {
	Sink
	PushRun(prefix Tuple, last []Value) bool
}

// CollectSink materializes the pushed rows into R, the moral equivalent of
// the legacy "return *Relation" contract expressed as a sink. The zero
// value is unusable: construct with NewCollect so R carries the output
// schema.
//
// Expect, when positive, is how many rows R is expected to hold in the end
// (engine.Bound.RunInto sets it from the last answer the Bound delivered).
// The collector reserves that much storage once, at its first write: the
// first Push or PushRun, or the first Stream that brings fewer rows than
// expected — a Stream that brings at least that many into an empty
// collector is adopted whole instead. It is a hint, not a limit: rows past
// it grow the storage as usual.
type CollectSink struct {
	R      *Relation
	Expect int
}

// NewCollect returns a CollectSink over a fresh empty relation with the
// given name and attribute order.
func NewCollect(name string, attrs ...int) *CollectSink {
	return &CollectSink{R: New(name, attrs...)}
}

// Push copies the row into the collected relation. It never stops the
// producer.
func (c *CollectSink) Push(t Tuple) bool {
	if c.Expect > 0 {
		c.reserve()
	}
	c.R.AddTuple(t)
	return true
}

// PushRun writes the run's rows straight into the collected relation.
func (c *CollectSink) PushRun(prefix Tuple, last []Value) bool {
	if c.Expect > 0 {
		c.reserve()
	}
	c.R.appendRun(prefix, last)
	return true
}

// reserve makes room for the expected rows, once, in one allocation (a
// race-instrumented slices.Grow makes two).
func (c *CollectSink) reserve() {
	r := c.R
	if need := c.Expect * len(r.Attrs); need > cap(r.data) {
		r.data = append(make([]Value, 0, need), r.data...)
	}
	c.Expect = 0
}

// LimitSink forwards at most N rows to the wrapped sink and then stops the
// producer. Because producers push in final output order, the rows that
// pass through are exactly the first N rows of the full result — a true
// LIMIT-N prefix, not an arbitrary sample.
type LimitSink struct {
	S    Sink
	N    int
	seen int
}

// Limit wraps s so the producer is stopped as soon as n rows have been
// delivered (n ≤ 0 stops immediately, before the first row).
func Limit(s Sink, n int) *LimitSink { return &LimitSink{S: s, N: n} }

// Push forwards the row and reports whether the producer should continue.
// It returns false on the push that reaches the limit (not the one after),
// so a LIMIT-1 consumer stops its producer the moment the first row exists.
func (l *LimitSink) Push(t Tuple) bool {
	if l.seen >= l.N {
		return false
	}
	l.seen++
	if !l.S.Push(t) {
		return false
	}
	return l.seen < l.N
}

// Pushed returns how many rows were forwarded.
func (l *LimitSink) Pushed() int { return l.seen }

// CountSink counts rows without retaining them — the COUNT(*) execution
// mode: no output tuple is ever materialized or copied.
type CountSink struct {
	N int
}

// Push counts the row.
func (c *CountSink) Push(Tuple) bool {
	c.N++
	return true
}

// PushRun counts the run's rows.
func (c *CountSink) PushRun(_ Tuple, last []Value) bool {
	c.N += len(last)
	return true
}

// Block is a run of consecutive result rows: N rows, row-major in Vals (N
// is kept beside Vals so that width-0 rows keep their count).
type Block struct {
	Vals []Value
	N    int
}

const blockQueue = 4 // handed-over blocks that may wait in BlockSink.C

// BlockSink hands rows from a producer goroutine to one consumer goroutine
// in blocks. Pushed rows are copied into a flat block that crosses C once it
// holds the current hand-off size — 1 row first, so the first row is never
// held back, then ×4 up to 256 — so the channel operation and the allocation
// are paid per block, not per row. C holds four blocks: a producer nobody
// receives from parks after 1+4+16+64+256 = 341 rows, and later runs at most
// five full blocks ahead. Closing stop, polled on every push, aborts a parked
// or future Push (the consumer's cancellation).
//
// Whoever called RunInto calls Flush when the run returns — on success,
// error and budget trip alike, so every row accepted before the run ended
// reaches the consumer — and then closes C. A received block is valid until
// the next receive from C: blocks rotate through blockQueue+2 buffers, so the
// one being filled is never the one the consumer holds.
type BlockSink struct {
	C    chan Block
	stop <-chan struct{}
	bufs [blockQueue + 2][]Value
	cur  Block // the block being filled, in bufs[sent%len(bufs)]
	sent int   // blocks handed over
	size int   // rows in the next hand-off
}

// NewBlockSink returns a BlockSink that stops its producer once stop closes.
func NewBlockSink(stop <-chan struct{}) *BlockSink {
	return &BlockSink{C: make(chan Block, blockQueue), stop: stop, size: 1}
}

// Push copies the row into the current block and hands the block over when
// it is full, blocking until C has room. It reports false once stop closes.
func (s *BlockSink) Push(t Tuple) bool {
	faultinject.Fire(faultinject.SiteSinkPush)
	select {
	case <-s.stop:
		return false
	default:
	}
	if s.cur.N == 0 {
		buf := &s.bufs[s.sent%len(s.bufs)]
		if need := s.size * len(t); cap(*buf) < need { // first time round, or a buffer of the ramp
			*buf = make([]Value, 0, need)
		}
		s.cur.Vals = (*buf)[:0]
	}
	s.cur.Vals = append(s.cur.Vals, t...)
	s.cur.N++
	return s.cur.N < s.size || s.Flush()
}

// Flush hands over the rows pushed since the last hand-off, if any; it
// reports false if stop closed before the consumer made room for them.
func (s *BlockSink) Flush() bool {
	if s.cur.N == 0 {
		return true
	}
	select {
	case s.C <- s.cur:
	case <-s.stop:
		return false
	}
	s.cur = Block{}
	s.sent++
	// Yield: the consumer is runnable now but would wait for an idle OS thread
	// to wake while this goroutine keeps its processor (after the first row,
	// for the whole ramp), and a goroutine readied by the network poller — the
	// reader of a cancel frame — would wait behind both of them for longer.
	runtime.Gosched()
	s.size = min(4*s.size, 256)
	return true
}

// Stream pushes r's rows into sink in order, stopping early if the sink
// does; it reports whether the sink accepted every row. This is the flush
// path for producers that buffer (materialize + sort) before streaming.
//
// Fast path: when sink is a CollectSink with the same attribute order, r
// moves as one block instead of row by row — the caller hands over
// ownership of r. An empty collector adopts the relation wholesale (keeping
// its own name) when r holds at least the rows it expects, which makes
// materializing a buffering executor's output (engine.Bound.Run, any
// NewCollect sink) zero-copy; otherwise the collector reserves what it
// expects and appends r's flat storage in a single copy, which is how the
// parallel scheduler hands over each completed run.
func Stream(r *Relation, sink Sink) bool {
	if c, ok := sink.(*CollectSink); ok && c.R != nil && slices.Equal(c.R.Attrs, r.Attrs) {
		if c.R.n == 0 && r.n >= c.Expect {
			name := c.R.Name
			c.R, c.Expect = r, 0
			c.R.Name = name
			return true
		}
		if c.Expect > 0 {
			c.reserve()
		}
		c.R.appendRows(r.data, r.n)
		return true
	}
	for i := 0; i < r.n; i++ {
		if !sink.Push(r.Row(i)) {
			return false
		}
	}
	return true
}
