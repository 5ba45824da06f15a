package fdqc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// TransportError reports a connection-level failure: a dial that did not
// complete, a hello exchange cut short, or a query whose stream died
// before its terminal stats/error frame. MidStream distinguishes the one
// case automatic retry must not touch: the connection died after row
// batches were already consumed, so re-running the query could
// double-count work against the tenant's admission budget and silently
// replay partial results. Everything before the first batch is safe — the
// server either never admitted the query or its effects are invisible.
//
//lint:ignore fdqvet/errtaxonomy client-side only: describes the wire dying, so by definition it never crosses the wire
type TransportError struct {
	Op        string // "dial", "hello", "send", "recv"
	MidStream bool   // row batches were consumed before the failure
	Err       error
}

func (e *TransportError) Error() string {
	if e.MidStream {
		return fmt.Sprintf("fdqc: transport: %s failed mid-stream (not retried): %v", e.Op, e.Err)
	}
	return fmt.Sprintf("fdqc: transport: %s: %v", e.Op, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// RetryPolicy is exponential backoff with full jitter: attempt n sleeps a
// uniform random duration in [0, min(MaxDelay, BaseDelay·2ⁿ)]. Full
// jitter (rather than equal or decorrelated) is deliberate — when a
// server sheds thousands of connections at once, it is the spread that
// prevents the reconnect herd from arriving in lockstep.
//
// A policy bounds retries three ways: MaxAttempts caps total tries
// (first attempt included), Budget caps cumulative backoff sleep, and the
// caller's context cuts everything short. A server-supplied retry-after
// hint (OverCapacityError) acts as a floor under the jittered delay.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first; ≤0 = 4
	BaseDelay   time.Duration // first backoff ceiling; ≤0 = 50ms
	MaxDelay    time.Duration // backoff ceiling growth cap; ≤0 = 2s
	Budget      time.Duration // max cumulative sleep across retries; ≤0 = 15s

	// rand overrides the jitter source in tests; nil uses the global PRNG.
	rand *rand.Rand
}

// DefaultRetryPolicy is the policy WithRetry applies when handed a zero
// value: 4 attempts, 50ms base, 2s cap, 15s total backoff budget.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Budget: 15 * time.Second}
}

func (p RetryPolicy) norm() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Budget <= 0 {
		p.Budget = d.Budget
	}
	return p
}

// delay computes the jittered backoff before retry number n (n=1 is the
// sleep between the first and second attempt), with floor as a minimum
// (the server's retry-after hint, 0 for none).
func (p RetryPolicy) delay(n int, floor time.Duration) time.Duration {
	ceil := p.BaseDelay
	for i := 1; i < n && ceil < p.MaxDelay; i++ {
		ceil *= 2
	}
	if ceil > p.MaxDelay {
		ceil = p.MaxDelay
	}
	var d time.Duration
	if ceil > 0 {
		if p.rand != nil {
			d = time.Duration(p.rand.Int63n(int64(ceil) + 1))
		} else {
			d = time.Duration(rand.Int63n(int64(ceil) + 1))
		}
	}
	if d < floor {
		d = floor
	}
	return d
}

// retryState tracks one operation's attempts against a policy.
type retryState struct {
	policy  RetryPolicy
	attempt int           // attempts made so far
	slept   time.Duration // cumulative backoff
}

func newRetryState(p RetryPolicy) *retryState { return &retryState{policy: p.norm()} }

// next decides whether err warrants another attempt and, if so, sleeps
// the backoff (honoring ctx). It returns nil to proceed with the retry,
// or the error to surface (err itself when retries are exhausted or err
// is not retryable; ctx's error when the context fires mid-backoff).
func (s *retryState) next(ctx context.Context, err error) error {
	retryable, floor := Retryable(err)
	if !retryable {
		return err
	}
	s.attempt++
	if s.attempt >= s.policy.MaxAttempts {
		return err
	}
	d := s.policy.delay(s.attempt, floor)
	if s.slept+d > s.policy.Budget {
		return err
	}
	s.slept += d
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// Retryable classifies an error for automatic retry and extracts the
// server's retry-after floor when it carries one. The taxonomy:
//
//   - *OverCapacityError: retryable — the server refused the connection
//     before running anything; its RetryAfter hint is the floor.
//   - CodeUnavailable (draining server): retryable for the same reason.
//   - *TransportError with MidStream=false: retryable — dial and hello
//     failures, and query failures before the first row batch, are
//     invisible to admission accounting.
//   - *TransportError with MidStream=true: NOT retryable — work was
//     consumed; re-running could double-count against PolicyQueue budgets
//     and replay rows the caller already saw.
//   - *ProtocolError: NOT retryable — a peer that desyncs once will
//     desync again; surfacing it is a bug report, not a transient.
//   - context.Canceled / DeadlineExceeded: NOT retryable — the caller
//     asked to stop.
//   - Typed fdq errors (bound/rows/memory exceeded, panic) and every
//     other server-reported error: NOT retryable — the query itself was
//     judged, and a retry would be judged identically.
func Retryable(err error) (bool, time.Duration) {
	if err == nil {
		return false, 0
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	var oe *OverCapacityError
	if errors.As(err, &oe) {
		return true, oe.RetryAfter
	}
	var re *RemoteError
	if errors.As(err, &re) && re.Code == CodeUnavailable {
		return true, 0
	}
	// TransportError before ProtocolError: a TransportError wrapping a
	// truncation-flavored ProtocolError is a dead network, not a desync,
	// and the MidStream flag already encodes the safety judgment.
	var te *TransportError
	if errors.As(err, &te) {
		return !te.MidStream, 0
	}
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return false, 0
	}
	// Raw network errors (a dial that never reached the hello, an
	// ECONNREFUSED): connection-establishment failures are retryable.
	var ne net.Error
	if errors.As(err, &ne) {
		return true, 0
	}
	return false, 0
}
