package rel

import (
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
//   - One pusher at a time. Sequential executions push from the calling
//     goroutine; the parallel scheduler pushes from possibly different
//     goroutines in succession, each hand-over ordered by the scheduler's
//     mutex (a happens-before edge), so Sink implementations need no
//     internal locking unless they are shared across executions — but they
//     must not rely on goroutine identity.
type Sink interface {
	Push(t Tuple) bool
}

// CollectSink materializes the pushed rows into R, the moral equivalent of
// the legacy "return *Relation" contract expressed as a sink. The zero
// value is unusable: construct with NewCollect so R carries the output
// schema.
type CollectSink struct {
	R *Relation
}

// NewCollect returns a CollectSink over a fresh empty relation with the
// given name and attribute order.
func NewCollect(name string, attrs ...int) *CollectSink {
	return &CollectSink{R: New(name, attrs...)}
}

// Push copies the row into the collected relation. It never stops the
// producer.
func (c *CollectSink) Push(t Tuple) bool {
	c.R.AddTuple(t)
	return true
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

// ChanSink delivers each pushed row (copied, since pushed tuples are only
// valid during the call) to a channel, giving streaming consumers
// backpressure for free: a bounded C blocks the producer until the consumer
// catches up. Closing Stop aborts a blocked or future Push, stopping the
// producer — the consumer's cancellation path. The producer owns closing C
// (after its Run returns), never ChanSink itself.
type ChanSink struct {
	C    chan Tuple
	Stop <-chan struct{}
}

// Push copies the row and sends it, blocking until the consumer receives it
// or Stop closes. It reports false — stop the producer — once Stop closes.
func (s *ChanSink) Push(t Tuple) bool {
	faultinject.Fire(faultinject.SiteSinkPush)
	row := append(Tuple(nil), t...)
	select {
	case <-s.Stop:
		return false
	default:
	}
	select {
	case s.C <- row:
		return true
	case <-s.Stop:
		return false
	}
}

// Stream pushes r's rows into sink in order, stopping early if the sink
// does; it reports whether the sink accepted every row. This is the flush
// path for producers that buffer (materialize + sort) before streaming.
//
// Fast path: when sink is a CollectSink with the same attribute order, r
// moves as one block instead of row by row — the caller hands over
// ownership of r. An empty collector adopts the relation wholesale (keeping
// its own name), which makes the legacy materialized entry points zero-copy
// wrappers over the sink-based ones; a non-empty one appends r's flat
// storage in a single copy, which is how the parallel scheduler hands over
// each completed run.
func Stream(r *Relation, sink Sink) bool {
	if c, ok := sink.(*CollectSink); ok && c.R != nil && slices.Equal(c.R.Attrs, r.Attrs) {
		if c.R.n == 0 {
			name := c.R.Name
			c.R = r
			c.R.Name = name
			return true
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

// MergeSortedInto is MergeSorted streaming into a sink: it k-way merges
// already-sorted duplicate-free sources (duplicates across sources dropped)
// and pushes each merged row as soon as it wins the merge, stopping the
// merge the moment the sink stops. This is the parallel execution path's
// streaming merge: per-partition outputs are sorted and disjoint, so the
// pushed sequence is byte-identical to the sequential execution's output,
// and a LIMIT-k consumer stops after k rows without touching the rest of
// the partitions' rows. It reports whether the sink accepted every row.
//
// A handful of sources (static partitioning) use a linear per-row scan;
// many sources (morsel runs) are merged by a loser-tree tournament so the
// per-row cost is O(log k), not O(k).
func MergeSortedInto(sink Sink, srcs []*Relation) bool {
	if len(srcs) == 0 {
		panic("rel: MergeSortedInto needs at least one source")
	}
	k := len(srcs[0].Attrs)
	for _, s := range srcs {
		if !slices.Equal(s.Attrs, srcs[0].Attrs) {
			panic("rel: MergeSortedInto schema mismatch")
		}
	}
	if k == 0 {
		for _, s := range srcs {
			if s.n > 0 {
				return sink.Push(Tuple{})
			}
		}
		return true
	}
	if len(srcs) > mergeScanThreshold {
		return mergeTournamentInto(sink, srcs, k)
	}
	pos := make([]int, len(srcs))
	last := make(Tuple, k)
	emitted := false
	for {
		best := -1
		for s, sr := range srcs {
			if pos[s] == sr.n {
				continue
			}
			if best < 0 || cmpRowsAt2(sr.data, srcs[best].data, pos[s]*k, pos[best]*k, k) < 0 {
				best = s
			}
		}
		if best < 0 {
			return true
		}
		row := srcs[best].Row(pos[best])
		pos[best]++
		if emitted && cmpRowsAt2(last, row, 0, 0, k) == 0 {
			continue
		}
		copy(last, row)
		emitted = true
		if !sink.Push(row) {
			return false
		}
	}
}
