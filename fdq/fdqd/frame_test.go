package fdqd

import (
	"io"
	"math"
	"testing"

	"repro/fdq"
	"repro/fdq/fdqc"
	"repro/internal/varset"
)

// TestWidestBatchFitsMaxFrame: the largest batch frame the server can send,
// batchRows rows at the widest a query can be with every value a
// ten-byte varint, fits in the protocol's frame cap (about 2.6 MiB of 16).
func TestWidestBatchFitsMaxFrame(t *testing.T) {
	vals := make([]fdq.Value, batchRows*varset.MaxVars)
	for i := range vals {
		vals[i] = math.MinInt64
	}
	payload := fdqc.AppendBatch(nil, vals, varset.MaxVars)
	if err := fdqc.WriteFrame(io.Discard, fdqc.FrameBatch, payload); err != nil {
		t.Fatalf("a %d-row batch at width %d (%d bytes): %v", batchRows, varset.MaxVars, len(payload), err)
	}
}
