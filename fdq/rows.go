package fdq

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/rel"
)

// RunStats summarizes one finished execution.
//
// The JSON tags are the stats' wire mapping: fdqd streams a RunStats to
// the client as the stats frame of every successful query, and fdqc
// decodes it back into the same struct — keep the tags stable (durations
// travel as nanoseconds, NaN LogBound as the JSON null via LogBoundPtr
// handling in fdqc's envelope).
type RunStats struct {
	Algorithm string        `json:"algorithm"`  // algorithm that actually ran
	Workers   int           `json:"workers"`    // goroutines that executed partitions (1 = sequential)
	Rows      int           `json:"rows"`       // rows emitted (a stopped run counts what it delivered)
	Duration  time.Duration `json:"duration"`   // wall-clock execution time (JSON: nanoseconds)
	LogBound  float64       `json:"-"`          // certified log2 output bound the planner computed (NaN if none; not JSON-safe — carried as a pointer by the wire envelope)
	MemBytes  int64         `json:"mem_bytes"`  // approximate result bytes accounted (8 per value)
	QueueWait time.Duration `json:"queue_wait"` // time spent queued behind the governor's semaphore (JSON: nanoseconds)
	Degraded  bool          `json:"degraded"`   // ran in PolicyDegrade mode (LIMIT-k or COUNT-only)

	// Morsel-scheduler detail (zero on sequential runs).
	Morsels int `json:"morsels"` // work units the morsel scheduler executed
	Steals  int `json:"steals"`  // morsels a worker took from another worker's share
}

func runStats(st *engine.Stats, adm *admission) *RunStats {
	if st == nil {
		return nil
	}
	rs := &RunStats{
		Algorithm: string(st.Ran),
		Workers:   st.Workers,
		Rows:      st.OutSize,
		Duration:  st.Duration,
		MemBytes:  st.MemBytes,
		LogBound:  math.NaN(),
		Morsels:   st.Morsels,
		Steals:    st.Steals,
	}
	if adm != nil {
		rs.LogBound = adm.logBound
		rs.QueueWait = adm.wait
		rs.Degraded = adm.degraded
	}
	return rs
}

// Rows is a streaming result iterator in the database/sql style:
//
//	rows, err := sess.Query(ctx, q)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var x, y Value
//		if err := rows.Scan(&x, &y); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// The executor runs concurrently and hands rows over in blocks (a
// rel.BlockSink: the first row alone, then 4, 16, 64, 256, 256, ... rows; at
// most 341 rows ahead of the first Next, five full blocks afterwards):
// iterating slowly backpressures it, Close stops it promptly (the remaining
// result is never computed), and rows arrive in the deterministic result
// order (Vars-order columns, lexicographically sorted, duplicate-free). A
// Rows is used by one goroutine at a time.
//
// The iterator owns a context derived from the Query call's: Close cancels
// it, so the stop reaches both a producer parked in a block hand-off AND the
// executors' inner-loop cancellation checks — a buffering algorithm (chain,
// CSMA, ...) that has not pushed a single row yet still aborts promptly.
// Cancelling the caller's own context travels the same path.
type Rows struct {
	cols   []string
	out    *rel.BlockSink     // the producer pushes, Next receives from out.C
	parent context.Context    // the Query caller's ctx, to attribute errors
	cancel context.CancelFunc // cancels the iterator-owned derived ctx

	closeOnce sync.Once
	closed    bool      // Close was called (set before cancel fires)
	done      bool      // out.C closed and observed
	closeErr  error     // the parent context's error state when Close ran
	blk       rel.Block // the block Next is iterating
	at        int       // rows of blk already returned
	cur       rel.Tuple
	err       error
	stats     *engine.Stats
	adm       *admission // admission info, for the governed RunStats fields
}

func newRows(cols []string, parent context.Context, stop <-chan struct{}, cancel context.CancelFunc) *Rows {
	return &Rows{
		cols:   append([]string(nil), cols...),
		out:    rel.NewBlockSink(stop),
		parent: parent,
		cancel: cancel,
	}
}

// run executes in the iterator's producer goroutine; err and stats are
// published before the channel closes (Next/Close read them only after).
// ctx is the iterator-owned derived context: its Done channel doubles as
// the sink's stop signal, so cancellation unblocks a parked Push. The sink
// buffers, so it is flushed the moment RunInto returns, however it returns:
// the rows accepted before an error or a budget trip reach the consumer
// ahead of it. The admission's semaphore hold is released here, when the
// work is done — never earlier — so queued admission bounds concurrent load.
//
// The deferred r.cancel releases the derived context — and the governor's
// WithQueryTimeout timer behind it — the moment the producer finishes, so
// an abandoned iterator (consumer never calls Next past exhaustion or
// Close) does not hold a live timer until it fires. It runs after the body
// published r.err/r.stats and before the channel closes (defers are LIFO),
// so Err never observes the producer's own release as a cancellation.
func (r *Rows) run(ctx context.Context, e *exec) {
	defer close(r.out.C)
	defer e.adm.release()
	defer r.cancel()
	r.adm = e.adm
	var base rel.Sink = r.out
	if e.countOnly {
		// COUNT-only degrade: deliver no rows; the count surfaces via
		// Stats().Rows once the iterator reports exhaustion.
		base = &rel.CountSink{}
	}
	sink, bs := e.sink(base, !e.countOnly)
	func() {
		// Belt and braces: the engine recovers its own panics, but a
		// panic in fdq-level sink plumbing must not kill the process — it
		// becomes this iterator's error like any other.
		defer recoverToError(&r.err)
		r.stats, r.err = e.b.RunInto(ctx, e.opts, sink)
	}()
	r.out.Flush()
	r.err = e.execErr(r.err, bs)
	if r.err == nil {
		// A cancellation can also surface as a clean sink stop (the Done
		// channel doubles as the stop signal, and the stop path is not an
		// error); record it so Err can report an external cancel. Close's
		// own cancel is suppressed there.
		r.err = ctx.Err()
	}
}

// Next advances to the next row, reporting false when the result is
// exhausted, the limit was reached, the iterator was closed, or execution
// failed (check Err to distinguish).
func (r *Rows) Next() bool {
	for r.at == r.blk.N {
		if r.blk, r.at = <-r.out.C, 0; r.blk.N == 0 { // closed: a handed-over block is never empty
			r.cur = nil
			r.done = true
			r.cancel() // release the derived context on natural exhaustion
			return false
		}
	}
	w := len(r.cols)
	r.cur = r.blk.Vals[r.at*w : (r.at+1)*w : (r.at+1)*w]
	r.at++
	return true
}

// Columns returns the column names, in Vars order.
func (r *Rows) Columns() []string { return append([]string(nil), r.cols...) }

// Row returns the current row. It is valid until the next Next call, after
// which the producer may overwrite its storage; copy it to keep it.
func (r *Rows) Row() []Value { return r.cur }

// Scan copies the current row into dest, one pointer per column.
func (r *Rows) Scan(dest ...*Value) error {
	if r.cur == nil {
		return fmt.Errorf("fdq: Scan called without a current row")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("fdq: Scan got %d destinations for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		*d = r.cur[i]
	}
	return nil
}

// Err returns the execution error, if any. Like database/sql, it is
// meaningful after Next returned false (or after Close); a consumer
// stopping early — Close, or the query's Limit — is not an error, so the
// context.Canceled produced by Close's own cancellation is suppressed
// unless the caller's context was already cancelled when Close ran. The
// parent's error state is snapshotted at close time: a clean Close is
// final, and a parent cancelled afterwards cannot retroactively turn the
// non-error into context.Canceled.
func (r *Rows) Err() error {
	if !r.done {
		return nil
	}
	if r.closed && errors.Is(r.err, context.Canceled) && r.closeErr == nil {
		return nil
	}
	return r.err
}

// Close stops the executor promptly — by cancelling the iterator's derived
// context, which both unblocks a producer parked on a hand-off and trips
// the executors' inner-loop cancellation checks — drains the stream, and
// returns the execution error, if any (its own cancellation is not one).
// Close is idempotent and safe after exhaustion.
func (r *Rows) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = r.parent.Err() // snapshot before cancel: Close-time truth
		r.closed = true
		r.cancel()
	})
	for r.Next() {
	}
	return r.Err()
}

// Stats returns execution statistics, available once the iterator is
// exhausted or closed (nil before, or when execution failed during
// planning).
func (r *Rows) Stats() *RunStats {
	if !r.done {
		return nil
	}
	return runStats(r.stats, r.adm)
}
