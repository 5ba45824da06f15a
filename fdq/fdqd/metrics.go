package fdqd

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/fdq"
)

// histBuckets is the number of power-of-two latency buckets: bucket i
// counts observations in [2^(i-1), 2^i) microseconds (bucket 0 is <1µs),
// topping out around 34s with an overflow bucket after.
const histBuckets = 26

// histogram is a fixed power-of-two latency histogram, safe for
// concurrent observation without locks.
type histogram struct {
	count  atomic.Int64
	sumNs  atomic.Int64
	bucket [histBuckets + 1]atomic.Int64 // +1 = overflow
}

func (h *histogram) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.count.Add(1)
	h.sumNs.Add(int64(d))
	us := uint64(d / time.Microsecond)
	i := 0
	for us > 0 && i < histBuckets {
		us >>= 1
		i++
	}
	h.bucket[i].Add(1)
}

// write emits the histogram in the Prometheus text exposition format.
func (h *histogram) write(w io.Writer, name string) {
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.bucket[i].Load()
		le := float64(uint64(1)<<i) / 1e6 // bucket upper bound, seconds
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmt.Sprintf("%g", le), cum)
	}
	cum += h.bucket[histBuckets].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumNs.Load())/1e9)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

// Metrics aggregates server-wide counters. All fields are safe for
// concurrent use; a zero Metrics is ready.
type Metrics struct {
	Admitted     atomic.Int64 // queries past admission (includes degraded)
	Rejected     atomic.Int64 // admission refusals (bound policy or queue cancel)
	QueuedOK     atomic.Int64 // admissions that waited in the governor queue
	Degraded     atomic.Int64 // admissions that ran in degraded mode
	QueriesOK    atomic.Int64 // queries that streamed a terminal stats frame
	QueriesErr   atomic.Int64 // queries that ended in an error frame
	RowsStreamed atomic.Int64 // rows whose batch frame was written
	OpenConns    atomic.Int64
	ConnsTotal   atomic.Int64

	OverCapacity    atomic.Int64 // connections refused at the server-wide MaxConns cap
	QuotaRefused    atomic.Int64 // connections refused at a per-tenant quota
	FrameTimeouts   atomic.Int64 // frames evicted on the slow-loris progress deadline
	IdleEvicted     atomic.Int64 // connections evicted for sitting idle past IdleTimeout
	AcceptThrottled atomic.Int64 // accept-loop pauses (over-capacity shedding or accept errors)

	queueWait histogram // governor queue wait per admitted query
	duration  histogram // wall-clock per finished query (admission included)
}

// observeAdmission is the fdq.WithAdmissionObserver hook.
func (m *Metrics) observeAdmission(ev fdq.AdmissionEvent) {
	if !ev.Admitted {
		m.Rejected.Add(1)
		return
	}
	m.Admitted.Add(1)
	if ev.Queued {
		m.QueuedOK.Add(1)
		m.queueWait.observe(ev.Wait)
	}
	if ev.Degraded {
		m.Degraded.Add(1)
	}
}

func (m *Metrics) observeQuery(d time.Duration, err error) {
	m.duration.observe(d)
	if err != nil {
		m.QueriesErr.Add(1)
	} else {
		m.QueriesOK.Add(1)
	}
}

// WriteTo emits every counter and histogram in the Prometheus text
// exposition format (implements io.WriterTo for the /metrics endpoint).
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"fdqd_admitted_total", m.Admitted.Load()},
		{"fdqd_rejected_total", m.Rejected.Load()},
		{"fdqd_queued_total", m.QueuedOK.Load()},
		{"fdqd_degraded_total", m.Degraded.Load()},
		{"fdqd_queries_ok_total", m.QueriesOK.Load()},
		{"fdqd_queries_err_total", m.QueriesErr.Load()},
		{"fdqd_rows_streamed_total", m.RowsStreamed.Load()},
		{"fdqd_open_connections", m.OpenConns.Load()},
		{"fdqd_connections_total", m.ConnsTotal.Load()},
		{"fdqd_over_capacity_total", m.OverCapacity.Load()},
		{"fdqd_quota_refused_total", m.QuotaRefused.Load()},
		{"fdqd_frame_timeouts_total", m.FrameTimeouts.Load()},
		{"fdqd_idle_evicted_total", m.IdleEvicted.Load()},
		{"fdqd_accept_throttled_total", m.AcceptThrottled.Load()},
	} {
		fmt.Fprintf(cw, "%s %d\n", c.name, c.v)
	}
	m.queueWait.write(cw, "fdqd_queue_wait_seconds")
	m.duration.write(cw, "fdqd_query_duration_seconds")
	return cw.n, cw.err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
