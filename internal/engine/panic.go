package engine

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/rel"
)

// PanicError wraps a panic recovered during query execution. One panicking
// UDF or executor bug fails exactly the query that hit it — with the panic
// value and the goroutine stack preserved for diagnosis — instead of
// killing the process: RunInto recovers on the calling (or merging)
// goroutine, and every parallel partition worker recovers on its own.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine, debug.Stack format
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: query execution panicked: %v", e.Value)
}

// recoverToError converts an in-flight panic into a *PanicError stored in
// *err. Use as `defer recoverToError(&err)` on any goroutine that executes
// query code.
func recoverToError(err *error) {
	if p := recover(); p != nil {
		*err = &PanicError{Value: p, Stack: debug.Stack()}
	}
}

// MemLimitError reports that an execution exceeded Options.MemLimitBytes:
// the run's one memory gauge — partition buffers plus sink deliveries —
// passed the budget and the run was aborted. RunInto is the only place a
// trip becomes this error; Used is the gauge's total, Stats.MemBytes.
type MemLimitError struct {
	Limit int64 // the configured budget, bytes
	Used  int64 // accounted bytes when the run tripped
}

func (e *MemLimitError) Error() string {
	return fmt.Sprintf("engine: memory budget exceeded: accounted %d bytes over limit %d", e.Used, e.Limit)
}

// memGauge is a run's one memory accountant (RunInto makes it when the run
// needs one). Every buffered partition row and every row delivered to the
// caller's sink is charged to it: row by row through a gaugeSink when a
// limit can trip mid-run, in one sum afterwards when it cannot. The first
// charge past the limit trips the gauge — stopping that sink and, on the
// morsel path, cancelling the sibling workers via onTrip.
type memGauge struct {
	limit  int64 // 0 = account only, never trip
	used   atomic.Int64
	trip   atomic.Bool
	onTrip func() // called once, on the tripping goroutine; may be nil

	out gaugeSink // the caller's sink, when RunInto wraps it (one allocation for both)
}

// add accounts n bytes, reporting false once the budget is exceeded.
func (g *memGauge) add(n int64) bool {
	used := g.used.Add(n)
	if g.limit <= 0 || used <= g.limit {
		return true
	}
	if g.trip.CompareAndSwap(false, true) && g.onTrip != nil {
		g.onTrip()
	}
	return false
}

// gaugeSink counts the rows pushed into s and, when its gauge has a limit,
// charges each row to the gauge first: a tripped gauge stops the producer
// and the row is not delivered. It is both the delivered-row tally of a run
// (Stats.OutSize; the count includes the push on which the run stops, so a
// LIMIT-k run reports k) and a buffered partition's collector.
type gaugeSink struct {
	s rel.Sink
	g *memGauge
	n int
}

func (s *gaugeSink) Push(row rel.Tuple) bool {
	s.n++
	if s.g.limit > 0 && !s.g.add(tupleBytes(1, len(row))) {
		return false
	}
	return s.s.Push(row)
}

// tupleBytes approximates the memory of n rows of the given arity (8 bytes
// per value; header overheads are deliberately ignored — the accounting is
// a governor's coarse gauge, not an allocator).
func tupleBytes(rows, arity int) int64 { return int64(rows) * int64(arity) * 8 }
