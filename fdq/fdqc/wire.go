// Package fdqc is the network client for fdqd, the fdq query server: it
// dials a server, ships query descriptions over a small length-prefixed
// binary protocol, and exposes the streamed result through a Rows iterator
// with the same Next/Scan/Err/Close contract as fdq.Rows — Close (or
// cancelling the query context) propagates to a server-side context
// cancellation, so the remote executor stops promptly.
//
// The package also defines the wire protocol itself (frames, query specs,
// the typed-error envelope); the server side in fdq/fdqd imports these
// definitions, so client and server cannot drift apart. See DESIGN.md,
// "Wire protocol", for the frame layout and semantics.
package fdqc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/fdq"
)

// ProtocolVersion is negotiated in the hello exchange; a server refuses
// clients whose major version it does not speak.
const ProtocolVersion = 1

// MaxFrame is the default cap on one frame's encoded size. It bounds the
// memory a malicious or confused peer can make the other side allocate;
// row streams chunk into batches well under it.
const MaxFrame = 16 << 20

// FrameType tags each frame on the wire.
type FrameType byte

// Frame types. Client→server: hello, query, cancel. Server→client:
// hello-ack, row batch, stats (terminal success), error (terminal failure).
const (
	FrameHello    FrameType = 'H' // JSON Hello
	FrameHelloAck FrameType = 'h' // JSON HelloAck
	FrameQuery    FrameType = 'Q' // JSON QuerySpec
	FrameCancel   FrameType = 'C' // empty: cancel the in-flight query
	FrameBatch    FrameType = 'B' // binary row batch (uvarint count, varint values)
	FrameStats    FrameType = 'S' // JSON StatsFrame: the query succeeded
	FrameError    FrameType = 'E' // JSON ErrorFrame: the query (or handshake) failed
)

// ProtocolError reports a peer that broke the framing contract: a length
// prefix outside [1, MaxFrame], a truncated frame, a malformed batch, or a
// frame type that cannot appear where it did. It is terminal for the
// connection (frame boundaries are unknowable afterwards) and is never
// retried automatically — a peer that desyncs once will desync again.
//
//lint:ignore fdqvet/errtaxonomy client-side only: raised when framing desyncs, at which point no envelope can be trusted to carry it
type ProtocolError struct {
	Reason string
	Err    error // underlying IO error for truncation, nil otherwise
}

func (e *ProtocolError) Error() string { return "fdqc: protocol: " + e.Reason }

// Unwrap exposes the underlying IO error of a truncation, so errors.Is
// still matches io.ErrUnexpectedEOF and friends.
func (e *ProtocolError) Unwrap() error { return e.Err }

// WriteFrame writes one frame: a little-endian uint32 length (of the type
// byte plus payload) followed by the type byte and payload.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload)+1 > MaxFrame {
		return &ProtocolError{Reason: fmt.Sprintf("frame %c payload %d bytes exceeds the %d-byte frame cap", t, len(payload), MaxFrame)}
	}
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readStep bounds how much a frame read allocates ahead of the bytes that
// have actually arrived: a lying 16 MiB length prefix on a 5-byte frame
// costs one step, not 16 MiB.
const readStep = 64 << 10

// ReadFrame reads one frame, enforcing the MaxFrame cap. A corrupt length
// prefix or a frame truncated by the peer yields a typed *ProtocolError;
// an EOF cleanly between frames stays io.EOF. The payload is read (and
// allocated) in steps, so a hostile length prefix cannot force a large
// up-front allocation.
func ReadFrame(r io.Reader) (FrameType, []byte, error) { return readFrame(r, new([]byte)) }

// readFrame is ReadFrame into *buf's storage, grown in steps where it does
// not suffice: the payload aliases *buf, valid until *buf is passed in again.
func readFrame(r io.Reader, buf *[]byte) (FrameType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, err // clean close between frames
		}
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("frame header truncated: %v", err), Err: err}
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n < 1 || n > MaxFrame {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("frame length %d outside [1, %d]", n, MaxFrame)}
	}
	b := append((*buf)[:0], make([]byte, min(n, max(cap(*buf), readStep)))...)
	read := 0
	for {
		if _, err := io.ReadFull(r, b[read:]); err != nil {
			return 0, nil, &ProtocolError{Reason: fmt.Sprintf("frame truncated at %d of %d bytes: %v", read, n, err), Err: err}
		}
		read = len(b)
		if read == n {
			*buf = b
			return FrameType(b[0]), b[1:], nil
		}
		b = append(b, make([]byte, min(n-read, readStep))...)
	}
}

// Hello opens every connection, client first.
type Hello struct {
	Version int    `json:"version"`
	Tenant  string `json:"tenant,omitempty"` // admission-control identity; "" = the default tenant
}

// HelloAck is the server's accept.
type HelloAck struct {
	Version int    `json:"version"`
	Server  string `json:"server,omitempty"` // human-readable server identity
}

// StatsFrame terminates a successful query: the run's stats, the certified
// bound carried NaN-safely as a pointer, and the count for COUNT-mode
// queries (which stream no row batches).
type StatsFrame struct {
	Stats    *fdq.RunStats `json:"stats,omitempty"`
	LogBound *float64      `json:"log_bound,omitempty"` // nil = NaN (no certified bound)
	Count    int           `json:"count,omitempty"`
}

// AppendBatch encodes rows (each width wide, row-major in vals) onto buf as
// a batch payload: a uvarint row count followed by one varint per value.
func AppendBatch(buf []byte, vals []fdq.Value, width int) []byte {
	if width <= 0 {
		return binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(vals)/width))
	for _, v := range vals {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// DecodeBatch decodes a batch payload into row-major values, checking that
// the batch is width-aligned. Malformed batches yield a typed
// *ProtocolError, and the declared row count is validated against the
// bytes actually present (every varint is at least one byte) before any
// allocation sized by it — a hostile count cannot force an allocation
// larger than the payload it arrived in.
func DecodeBatch(payload []byte, width int) ([]fdq.Value, error) {
	return decodeBatch(nil, payload, width)
}

// batchValues reads a batch payload's header, validated as DecodeBatch
// describes, and returns the values it declares and the bytes holding them.
func batchValues(payload []byte, width int) (int, []byte, error) {
	n, k := binary.Uvarint(payload)
	if k <= 0 {
		return 0, nil, &ProtocolError{Reason: "malformed batch header"}
	}
	payload = payload[k:]
	if width <= 0 || n > uint64(MaxFrame) {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("batch of %d rows at width %d", n, width)}
	}
	if total := n * uint64(width); total > uint64(len(payload)) {
		return 0, nil, &ProtocolError{Reason: fmt.Sprintf("batch declares %d values in %d payload bytes", total, len(payload))}
	}
	return int(n) * width, payload, nil
}

// decodeBatch is DecodeBatch appending onto vals, whose prefix it never writes.
func decodeBatch(vals []fdq.Value, payload []byte, width int) ([]fdq.Value, error) {
	total, payload, err := batchValues(payload, width)
	if err != nil {
		return nil, err
	}
	vals = slices.Grow(vals, total)
	for i := 0; i < total; i++ {
		v, k := binary.Varint(payload)
		if k <= 0 {
			return nil, &ProtocolError{Reason: fmt.Sprintf("batch truncated at value %d", i)}
		}
		payload = payload[k:]
		vals = append(vals, v)
	}
	if len(payload) != 0 {
		return nil, &ProtocolError{Reason: fmt.Sprintf("%d trailing bytes after batch", len(payload))}
	}
	return vals, nil
}

// Error codes of the wire envelope. The typed codes reconstruct the fdq
// sentinel errors client-side, so errors.Is works identically on both ends
// of the connection.
const (
	CodeBoundExceeded  = "bound-exceeded"  // → *fdq.BoundExceededError
	CodeRowsExceeded   = "rows-exceeded"   // → *fdq.RowsExceededError
	CodeMemoryExceeded = "memory-exceeded" // → *fdq.MemoryExceededError
	CodePanicked       = "panicked"        // → *fdq.PanicError
	CodeCanceled       = "canceled"        // → context.Canceled
	CodeDeadline       = "deadline"        // → context.DeadlineExceeded
	CodeBadQuery       = "bad-query"       // query spec did not resolve/validate
	CodeUnavailable    = "unavailable"     // server is draining or refused the handshake
	CodeOverCapacity   = "over-capacity"   // → *OverCapacityError: connection cap or tenant quota hit
	CodeInternal       = "internal"        // anything else
)

// OverCapacityError is the server refusing a connection because its global
// connection cap or the tenant's quota is full. It is always safe to retry
// — the refused connection ran nothing — and RetryAfter, when nonzero, is
// the server's hint for how long to back off first; RetryPolicy treats it
// as a floor under its own jittered delay.
type OverCapacityError struct {
	Msg        string
	RetryAfter time.Duration
}

func (e *OverCapacityError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("fdqc: server over capacity (retry after %v): %s", e.RetryAfter, e.Msg)
	}
	return "fdqc: server over capacity: " + e.Msg
}

// ErrorFrame is the typed-error envelope: a code for errors.Is dispatch
// plus the numbers the corresponding fdq error type carries, so the
// client-side reconstruction is payload-exact, not just sentinel-exact.
type ErrorFrame struct {
	Code         string   `json:"code"`
	Msg          string   `json:"msg,omitempty"`
	LogBound     *float64 `json:"log_bound,omitempty"`      // bound-exceeded: certified bound (nil = NaN)
	Budget       *float64 `json:"budget,omitempty"`         // bound-exceeded: admission budget
	RowLimit     int      `json:"row_limit,omitempty"`      // rows-exceeded: the row budget
	MemLimit     int64    `json:"mem_limit,omitempty"`      // memory-exceeded: the byte budget
	MemUsed      int64    `json:"mem_used,omitempty"`       // memory-exceeded: accounted bytes
	RetryAfterMS int64    `json:"retry_after_ms,omitempty"` // over-capacity: server's backoff hint
}

// EncodeError maps an execution error onto the wire envelope. Typed fdq
// errors and context terminations keep their identity; everything else
// crosses as CodeInternal with the message.
func EncodeError(err error) ErrorFrame {
	var re0 *RemoteError
	if errors.As(err, &re0) {
		// Already an envelope-shaped error (e.g. the server tagging a bad
		// query spec): keep its code.
		return ErrorFrame{Code: re0.Code, Msg: re0.Msg}
	}
	var be *fdq.BoundExceededError
	if errors.As(err, &be) {
		return ErrorFrame{Code: CodeBoundExceeded, Msg: be.Error(),
			LogBound: FloatPtr(be.LogBound), Budget: FloatPtr(be.Budget)}
	}
	var re *fdq.RowsExceededError
	if errors.As(err, &re) {
		return ErrorFrame{Code: CodeRowsExceeded, Msg: re.Error(), RowLimit: re.Limit}
	}
	var me *fdq.MemoryExceededError
	if errors.As(err, &me) {
		return ErrorFrame{Code: CodeMemoryExceeded, Msg: me.Error(), MemLimit: me.Limit, MemUsed: me.Used}
	}
	var oe *OverCapacityError
	if errors.As(err, &oe) {
		return ErrorFrame{Code: CodeOverCapacity, Msg: oe.Msg, RetryAfterMS: oe.RetryAfter.Milliseconds()}
	}
	var pe *fdq.PanicError
	if errors.As(err, &pe) {
		// The reason crosses the wire; the server-side stack stays in the
		// server's logs — it is an operator's datum, not a client's.
		return ErrorFrame{Code: CodePanicked, Msg: pe.Reason}
	}
	switch {
	case errors.Is(err, context.Canceled):
		return ErrorFrame{Code: CodeCanceled, Msg: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return ErrorFrame{Code: CodeDeadline, Msg: err.Error()}
	}
	return ErrorFrame{Code: CodeInternal, Msg: err.Error()}
}

// Err reconstructs the error the envelope describes. The typed fdq errors
// come back as their real types (errors.Is/As both work); CodeCanceled and
// CodeDeadline come back wrapping context.Canceled/DeadlineExceeded.
func (e *ErrorFrame) Err() error {
	switch e.Code {
	case "":
		return nil
	case CodeBoundExceeded:
		return &fdq.BoundExceededError{LogBound: FloatOf(e.LogBound), Budget: FloatOf(e.Budget)}
	case CodeRowsExceeded:
		return &fdq.RowsExceededError{Limit: e.RowLimit}
	case CodeMemoryExceeded:
		return &fdq.MemoryExceededError{Limit: e.MemLimit, Used: e.MemUsed}
	case CodePanicked:
		return &fdq.PanicError{Reason: e.Msg}
	case CodeOverCapacity:
		return &OverCapacityError{Msg: e.Msg, RetryAfter: time.Duration(e.RetryAfterMS) * time.Millisecond}
	case CodeCanceled:
		return fmt.Errorf("fdqc: remote: %w", context.Canceled)
	case CodeDeadline:
		return fmt.Errorf("fdqc: remote: %w", context.DeadlineExceeded)
	}
	return &RemoteError{Code: e.Code, Msg: e.Msg}
}

// RemoteError is a server-reported failure with no richer client-side
// type: a bad query, a draining server, an internal error.
type RemoteError struct {
	Code string
	Msg  string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("fdqc: remote %s: %s", e.Code, e.Msg) }

// FloatPtr carries a float across the JSON wire NaN-safely: NaN (fdq's
// "no certified bound") becomes nil, which JSON renders as an absent
// field. FloatOf inverts it.
func FloatPtr(f float64) *float64 {
	if math.IsNaN(f) {
		return nil
	}
	return &f
}

func FloatOf(p *float64) float64 {
	if p == nil {
		return math.NaN()
	}
	return *p
}
