package bench

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"
)

// Span is one timed interval of the traced pass. Spans of one query share
// its label in Query; Parent is the ID of the span that caused this one (0
// for a root). Times are nanoseconds since the recorder was created.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Query    string `json:"query,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; the command writes them out when it ends.
// A nil recorder records nothing, which is how the untraced pass runs the
// same code with tracing off.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// start opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) start(name, query string, parent int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Name: name, Workload: r.workload, Query: query, StartNS: now})
	return id
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// timed records fn as a child span of parent and returns how long it took.
func (r *recorder) timed(name, query string, parent int, fn func()) time.Duration {
	id := r.start(name, query, parent)
	fn()
	return r.end(id)
}

// SelfTime is a span name's total and self time: self is the span's
// duration minus the part of it its child spans cover.
type SelfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// SelfTimes aggregates one workload's spans (IDs are unique only within a
// workload) by name, in first-seen order. Children may overlap (the wire
// workload's two connections run ops of one round side by side), so the
// covered part of a span is the union of its children's intervals.
func SelfTimes(spans []Span) []SelfTime {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var out []SelfTime
	index := map[string]int{}
	for _, s := range spans {
		i, ok := index[s.Name]
		if !ok {
			i = len(out)
			index[s.Name] = i
			out = append(out, SelfTime{Name: s.Name})
		}
		out[i].Count++
		out[i].Total += time.Duration(s.EndNS - s.StartNS)
		out[i].Self += time.Duration(s.EndNS - s.StartNS - covered(children[s.ID]))
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) (n int64) {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	end := int64(math.MinInt64)
	for _, x := range iv {
		if x[1] > end {
			n += x[1] - max(x[0], end)
			end = x[1]
		}
	}
	return n
}
